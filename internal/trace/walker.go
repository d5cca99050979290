package trace

import (
	"math"

	"securetlb/internal/tlb"
)

// Dense-window entry states. The entry is 8 bytes — oversized results and
// errors are rare, so they spill to the map and the hot path loads a single
// word-sized struct with no interface value in it. At campaign scale the
// dense array is the walker's cache footprint, so every byte halved is a
// miss avoided: a 3-ASID x 4096-page window is 96 KiB at 8 bytes versus
// 192 KiB at 16.
const (
	memoUnknown = iota // not walked yet
	memoFast           // ppn/cycles valid, no error
	memoSpill          // full result lives in the slow map
)

type memoEnt struct {
	ppn    uint32
	cycles uint16
	state  uint8
}

type memoSlowEnt struct {
	ppn    tlb.PPN
	cycles uint64
	err    error
}

// MemoWalker memoizes a page-table walker. Walks are deterministic per
// (ASID, VPN) — the walker charges fixed per-level latencies against
// immutable page tables — so each result, including page faults, is computed
// once and returned by reference thereafter (the cached error value is
// reused, keeping messages byte-identical across repeats).
//
// A dense window covers the address range a campaign program actually
// touches (its data pages plus the secure region the RF engine draws from);
// anything outside spills to a map. The window is laid out vpn-major: the
// entries for all ASIDs of one page sit adjacent, so the attacker/victim
// access pairs campaign programs are built from share a cache line. The
// wrapper is only sound while the underlying page tables are immutable —
// campaign trials never map, unmap or store — and, like the TLB designs, it
// is not safe for concurrent use: every cloned worker machine wraps its own.
type MemoWalker struct {
	pt    tlb.Walker
	nasid uint64
	base  uint64
	span  uint64
	dense []memoEnt
	slow  map[uint64]*memoSlowEnt
}

// NewMemoWalker wraps pt with a dense window of span pages starting at base
// for ASIDs [0, nasid).
func NewMemoWalker(pt tlb.Walker, nasid int, base tlb.VPN, span uint64) *MemoWalker {
	if nasid < 0 {
		nasid = 0
	}
	return &MemoWalker{
		pt:    pt,
		nasid: uint64(nasid),
		base:  uint64(base),
		span:  span,
		dense: make([]memoEnt, uint64(nasid)*span),
	}
}

// Walk implements tlb.Walker.
func (w *MemoWalker) Walk(asid tlb.ASID, vpn tlb.VPN) (tlb.PPN, uint64, error) {
	if uint64(asid) < w.nasid {
		if off := uint64(vpn) - w.base; off < w.span {
			e := &w.dense[off*w.nasid+uint64(asid)]
			if e.state == memoFast {
				return tlb.PPN(e.ppn), uint64(e.cycles), nil
			}
			return w.walkDense(e, asid, vpn)
		}
	}
	return w.walkSpill(asid, vpn)
}

// walkDense fills a dense-window entry on first touch (or serves one that
// spilled to the slow map because it faulted or overflowed the packed
// fields).
func (w *MemoWalker) walkDense(e *memoEnt, asid tlb.ASID, vpn tlb.VPN) (tlb.PPN, uint64, error) {
	if e.state == memoSpill {
		s := w.slow[spillKey(asid, vpn)]
		return s.ppn, s.cycles, s.err
	}
	ppn, cycles, err := w.pt.Walk(asid, vpn)
	if err == nil && cycles <= math.MaxUint16 && uint64(ppn) <= math.MaxUint32 {
		e.ppn, e.cycles, e.state = uint32(ppn), uint16(cycles), memoFast
		return ppn, cycles, nil
	}
	if uint64(vpn) >= spillVPNs {
		return ppn, cycles, err // not memoizable: walked again next time
	}
	if w.slow == nil {
		w.slow = make(map[uint64]*memoSlowEnt)
	}
	w.slow[spillKey(asid, vpn)] = &memoSlowEnt{ppn: ppn, cycles: cycles, err: err}
	e.state = memoSpill
	return ppn, cycles, err
}

// walkSpill handles addresses outside the dense window.
func (w *MemoWalker) walkSpill(asid tlb.ASID, vpn tlb.VPN) (tlb.PPN, uint64, error) {
	if uint64(vpn) >= spillVPNs {
		return w.pt.Walk(asid, vpn)
	}
	k := spillKey(asid, vpn)
	if e, ok := w.slow[k]; ok {
		return e.ppn, e.cycles, e.err
	}
	e := &memoSlowEnt{}
	e.ppn, e.cycles, e.err = w.pt.Walk(asid, vpn)
	if w.slow == nil {
		w.slow = make(map[uint64]*memoSlowEnt)
	}
	w.slow[k] = e
	return e.ppn, e.cycles, e.err
}

// spillVPNs bounds the VPNs the slow map holds: spillKey packs the VPN into
// the low 48 bits of its key. Pages at or above it — past any simulated
// address space — are walked every time instead, since the walk names the
// full VPN in its page-fault errors and two pages agreeing in their low
// bits must not share an entry.
const spillVPNs = 1 << 48

// spillKey is the slow map's key for (asid, vpn), vpn < spillVPNs.
func spillKey(asid tlb.ASID, vpn tlb.VPN) uint64 {
	return uint64(asid)<<48 | uint64(vpn)
}
