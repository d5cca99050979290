// Package area implements an analytical FPGA-area model reproducing the
// structure of the paper's Table 5 (§6.6).
//
// The paper synthesises the Rocket Core with each TLB variant on a Xilinx
// ZC706 and reports Slice LUTs and Slice Registers. Synthesis is not
// available here, so the substitution is a component-level estimator:
//
//   - registers: the core's flops plus the TLB array (tag + PPN + ASID +
//     valid + LRU state per entry, plus the RF TLB's Sec bit) plus each
//     design's extra architectural registers (the SP victim-ASID register;
//     the RF sbase/ssize/victim registers, the no-fill buffer and the
//     random-fill engine state);
//   - LUTs: the core's logic plus tag/ASID comparators per searched way,
//     read multiplexing per entry, LRU update logic, and the designs'
//     additions (SP partition steering; RF region comparators, Sec-bit
//     steering and the Random Fill Engine control).
//
// The model is calibrated so the paper's baseline — the 32-entry 4-way SA
// TLB at 36043 LUTs / 22765 registers — is matched exactly, and the RF/SP
// deltas land near the paper's (+6.2%/+0.4% LUTs at 4W-32). Absolute numbers
// for other geometries follow the component scaling rather than the paper's
// (noisy) synthesis results; the orderings the paper draws conclusions from
// are preserved and tested.
package area

import (
	"fmt"
	"math"

	"securetlb/internal/design"
)

// Design identifies a Table 5 design: an ID of the design registry.
type Design = design.ID

// Geometry is a TLB configuration.
type Geometry struct {
	Label         string
	Entries, Ways int
}

// Geometries returns Table 5's configurations (1E appears only under SA).
func Geometries(d Design) []Geometry {
	gs := []Geometry{
		{"1E", 1, 1},
		{"FA 32", 32, 32},
		{"2W 32", 32, 2},
		{"4W 32", 32, 4},
		{"FA 128", 128, 128},
		{"2W 128", 128, 2},
		{"4W 128", 128, 4},
	}
	if d != design.SA {
		return gs[1:]
	}
	return gs
}

// Architectural bit widths (Sv39-flavoured Rocket configuration).
const (
	vpnBits   = 27
	ppnBits   = 20
	asidBits  = 16
	validBits = 1
	secBits   = 1 // RF only
)

// Component cost constants (LUTs per bit / per entry), hand-calibrated to
// the ZC706 synthesis baseline.
const (
	lutPerCmpBit   = 0.55 // tag+ASID comparator, per searched way
	lutPerEntryMux = 1.10 // read-out multiplexing
	lutPerLRUTerm  = 1.60 // LRU update logic per way·log2(ways), per set
	lutPerSetDec   = 2.00 // set index decode
	// SP additions: partition steering of the fill way select.
	lutSPFixed  = 118.0
	lutSPPerWay = 5.0
	// RF additions: Random Fill Engine (LFSR + address compose + FSM),
	// no-fill buffer bypass, secure-region comparators, Sec steering.
	lutRFFixed     = 1990.0
	lutRFRegionCmp = 2 * vpnBits * 1.4
	lutRFPerEntry  = 1.5 // Sec-bit fill/probe steering
	// RF extra registers: buffer (one entry), LFSR, region/victim
	// registers, control state.
	regRFFixed = 1221.0
	regSPFixed = 33.0
	// RI additions: the 3-round index cipher (S-box and diffusion layers,
	// replicated per round for single-cycle indexing), the re-key FSM, and
	// the key / key-stream / fill-counter registers. The tag also widens to
	// the full VPN (see entryBits): a keyed index stores no address bits.
	lutRIFixed = 1740.0
	regRIFixed = 178.0 // 64b key + 64b key stream + fill counter + FSM
	// FS additions: current-context register and switch comparator,
	// secure-region comparators, and the whole-array invalidate strobe
	// fan-out.
	lutFSFixed     = 96.0
	lutFSRegionCmp = 2 * vpnBits * 1.4
	lutFSPerEntry  = 0.25 // invalidate-strobe fan-out per entry
	regFSFixed     = 92.0 // cur ASID + lastSecure + sbase/ssize/victim
)

// Core footprint outside the D-TLB, derived from the calibration points
// below (the ZC706 4W-32 SA totals).
const (
	calibLUTs = 36043
	calibRegs = 22765
)

func log2(n int) float64 {
	if n <= 1 {
		return 0
	}
	return math.Log2(float64(n))
}

// entryBits returns the storage bits per TLB entry.
func entryBits(d Design, g Geometry) float64 {
	nsets := g.Entries / g.Ways
	tag := float64(vpnBits) - log2(nsets) // index bits are implicit
	if d == design.RI {
		// The keyed index is a cipher output, not address bits, so the
		// full VPN must be stored and compared.
		tag = float64(vpnBits)
	}
	bits := tag + ppnBits + asidBits + validBits + log2(g.Ways)
	if d == design.RF {
		bits += secBits
	}
	return bits
}

// tlbRegs returns the TLB's register count.
func tlbRegs(d Design, g Geometry) float64 {
	r := float64(g.Entries) * entryBits(d, g)
	switch d {
	case design.SP:
		r += regSPFixed
	case design.RF:
		r += regRFFixed
	case design.RI:
		r += regRIFixed
	case design.FS:
		r += regFSFixed
	}
	return r
}

// tlbLUTs returns the TLB's LUT count.
func tlbLUTs(d Design, g Geometry) float64 {
	nsets := g.Entries / g.Ways
	tag := float64(vpnBits) - log2(nsets)
	if d == design.RI {
		tag = float64(vpnBits) // full-VPN tags under a keyed index
	}
	cmp := float64(g.Ways) * (tag + asidBits + validBits) * lutPerCmpBit
	mux := float64(g.Entries) * lutPerEntryMux
	lru := float64(nsets) * float64(g.Ways) * log2(g.Ways) * lutPerLRUTerm
	dec := float64(nsets) * lutPerSetDec
	l := cmp + mux + lru + dec
	switch d {
	case design.SP:
		l += lutSPFixed + lutSPPerWay*float64(g.Ways)
	case design.RF:
		l += lutRFFixed + lutRFRegionCmp + lutRFPerEntry*float64(g.Entries)
	case design.RI:
		l += lutRIFixed
	case design.FS:
		l += lutFSFixed + lutFSRegionCmp + lutFSPerEntry*float64(g.Entries)
	}
	return l
}

// core footprint, solved from the calibration point.
var (
	coreLUTs = calibLUTs - tlbLUTs(design.SA, Geometry{"4W 32", 32, 4})
	coreRegs = calibRegs - tlbRegs(design.SA, Geometry{"4W 32", 32, 4})
)

// Estimate is one Table 5 row.
type Estimate struct {
	Design    Design
	Geometry  string
	LUTs      int
	Registers int
	// DeltaLUTs/DeltaRegisters are relative to the 4W-32 SA baseline, as in
	// Table 5.
	DeltaLUTs      int
	DeltaRegisters int
}

// Estimate computes the modelled area of one configuration.
func Model(d Design, g Geometry) Estimate {
	luts := int(math.Round(coreLUTs + tlbLUTs(d, g)))
	regs := int(math.Round(coreRegs + tlbRegs(d, g)))
	return Estimate{
		Design:         d,
		Geometry:       g.Label,
		LUTs:           luts,
		Registers:      regs,
		DeltaLUTs:      luts - calibLUTs,
		DeltaRegisters: regs - calibRegs,
	}
}

// Table5 computes the full table: every Figure 7 design × geometry (FA is a
// geometry here). The paper's 19 configurations (SA with 1E, SP, RF) come
// first, extended by the RI and FS rows.
func Table5() []Estimate {
	var rows []Estimate
	for _, d := range design.Perf.Designs() {
		for _, g := range Geometries(d) {
			rows = append(rows, Model(d, g))
		}
	}
	return rows
}

// Find returns the row for a design/geometry label.
func Find(rows []Estimate, d Design, label string) (Estimate, error) {
	for _, r := range rows {
		if r.Design == d && r.Geometry == label {
			return r, nil
		}
	}
	return Estimate{}, fmt.Errorf("area: no row %s/%s", d, label)
}

// OverheadPercent returns the percentage overhead of a row's LUTs and
// registers over the same-geometry SA configuration.
func OverheadPercent(d Design, label string) (lutPct, regPct float64, err error) {
	rows := Table5()
	base, err := Find(rows, design.SA, label)
	if err != nil {
		return 0, 0, err
	}
	r, err := Find(rows, d, label)
	if err != nil {
		return 0, 0, err
	}
	lutPct = 100 * float64(r.LUTs-base.LUTs) / float64(base.LUTs)
	regPct = 100 * float64(r.Registers-base.Registers) / float64(base.Registers)
	return lutPct, regPct, nil
}
