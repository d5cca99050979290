// Package secbench generates and runs the micro security benchmarks of
// paper §5.1.
//
// For each of the 24 vulnerability types of Table 2 — and, in extended mode,
// the additional targeted-invalidation types of Appendix B (Table 7) — the
// generator emits an assembly program following the Figure 6 template: a
// prologue that programs the secure-region registers, the three steps of the
// vulnerability (switching the process_id CSR between attacker and victim,
// the paper's simulation hack), and a final timed step. Non-secure accesses
// use the "norm" load type and secure accesses the "rand" type, as in the
// paper; targeted invalidations use the tlb_flush_page_all CSR (the
// address-based invalidation of Appendix B).
//
// Each benchmark is run in two variants — the victim's secret address u
// mapping, or not mapping, to the attacker-tested TLB block (Table 3's two
// behaviours) — 500 trials each by default. The resulting miss counts give
// the empirical p1*, p2* and channel capacity C* columns of Table 4.
//
// Step expansion. The three-step model abstracts one TLB block; concretely,
// a "prime" of the tested set is required before an eviction can be
// observed. The expansion therefore keys on the vulnerability's informative
// scenario (derived by the model's oracle):
//
//   - u == a ("same-addr") types need no eviction: every step is a single
//     access, a whole-TLB flush, or a single targeted invalidation;
//   - set-conflict ("same-set") types prime: a known-address Step 1 fills
//     the tested set with the probed page first (making it the LRU
//     candidate) plus fillers up to the actor's available ways; a
//     known-address Step 2 fills the whole partition so it deterministically
//     evicts the victim's Step 1 entry; Step 3 re-touches (or invalidates)
//     the probed page, timed.
//
// The final step's timing is measured with the tlb_miss_count CSR for
// accesses, and with the cycle CSR for invalidations (a present entry takes
// one extra cycle under the Appendix B variable-timing invalidation).
//
// The number of ways an actor can fill depends on the design: the SP TLB
// confines each actor to its partition, so primes are sized accordingly.
package secbench

import (
	"fmt"
	"strings"

	"securetlb/internal/capacity"
	"securetlb/internal/design"
	"securetlb/internal/faultinject"
	"securetlb/internal/model"
	"securetlb/internal/tlb"
)

// Design selects which TLB design a campaign runs on: an ID of the design
// registry.
type Design = design.ID

// The registered designs under their secbench names.
const (
	DesignSA = design.SA
	DesignSP = design.SP
	DesignRF = design.RF
	DesignFA = design.FA
	DesignRI = design.RI
	DesignFS = design.FS
)

// Config parameterises a benchmark campaign. The zero value is not valid;
// use DefaultConfig.
type Config struct {
	Design Design
	// Entries and Ways give the TLB geometry (the paper evaluates security
	// on an 8-way, 32-entry TLB: 4 sets).
	Entries, Ways int
	// VictimWays is the SP victim partition size (default half).
	VictimWays int
	// Trials is the number of runs per victim behaviour (the paper uses
	// 500 mapped + 500 not-mapped).
	Trials int
	// BaseSeed seeds the RF TLB's PRNG (and the RI TLB's key stream); each
	// trial derives its own seed.
	BaseSeed uint64
	// RekeyFills is the RI TLB's re-key period in fills (0 disables
	// periodic re-keying). Ignored by the other designs.
	RekeyFills uint64
	// Params supplies the secure-region sizes per vulnerability.
	Params capacity.RFParams
	// MemLatency is the per-level page walk cost in cycles.
	MemLatency uint64
	// MaxInstr is the per-trial instruction budget — the watchdog that turns
	// a non-halting benchmark into a quarantinable cpu.ErrFuelExhausted
	// instead of a hung campaign. Zero selects DefaultTrialFuel.
	MaxInstr uint64
	// Inject, when non-nil, is a fault-injection hook for the resilient
	// runner's tests: it runs at the start of each trial and may panic (to
	// exercise panic quarantine) or return a non-zero instruction budget
	// overriding MaxInstr for that one trial (to exercise the watchdog).
	// Returning zero leaves the trial untouched. Production campaigns leave
	// it nil.
	Inject func(v model.Vulnerability, mapped bool, trial int) uint64
	// Invariants enables the runtime invariant checker: every campaign
	// machine's TLB is wrapped in an invariant.Checker (with the page-table
	// cross-check on), and any violation quarantines the trial with kind
	// "invariant". Off by default: an unwrapped design has zero checking
	// overhead.
	Invariants bool
	// FaultSite, when non-empty, arms the named hardware-fault site
	// (faultinject.MachineSites) on each trial's machine with a fresh
	// deterministic injector; FaultSeed is the campaign-level fault seed each
	// trial's injector seed derives from. Faults are injected underneath the
	// invariant checker, so detection is honest.
	FaultSite faultinject.Site
	FaultSeed uint64
	// DisableTrace forces every trial through full decode-and-execute
	// instead of trace-compiled replay. Replay is bit-identical to full
	// execution (the runner falls back automatically for programs a trace
	// cannot represent, and whenever fault injection is armed), so this knob
	// exists for A/B verification and benchmarking, not correctness.
	DisableTrace bool
}

// DefaultConfig mirrors the paper's §5.3 setup.
func DefaultConfig(d Design) Config {
	c := Config{
		Design:     d,
		Entries:    32,
		Ways:       8,
		VictimWays: 4,
		Trials:     500,
		BaseSeed:   0x5ecbef1,
		Params:     capacity.DefaultRFParams,
		MemLatency: 20,
	}
	if d.Entry().FullyAssoc {
		// One set holding every entry.
		c.Ways = c.Entries
	}
	if d == DesignRI {
		// A campaign trial performs at most ten fills, so a 16-fill period
		// never re-keys inside a Table 4 trial: the campaign measures the
		// keyed index under one key per trial. The re-key path (and the
		// randidx-key-stuck fault site) is exercised by faultbench's
		// fault-matrix configurations, which set RekeyFills = 2. The value
		// stays 16 because it is part of every RI campaign's configuration
		// and so of the Table 4 output.
		c.RekeyFills = 16
	}
	return c
}

const (
	victimASID   = 1
	attackerASID = 0
)

// invMeasureBaseline is the cycle cost of the timed invalidation sequence
// when the entry is absent: li (1) + csrw tlb_flush_page_all (1 + 1 flush
// cycle) + the second csrr (1). A present entry adds one cycle under the
// Appendix B variable-timing invalidation.
const invMeasureBaseline = 4

// nsets returns the set count of the configured geometry.
func (c Config) nsets() int { return c.Entries / c.Ways }

// primeWays returns how many ways an actor's fills can occupy.
func (c Config) primeWays(actor model.Actor) int {
	if c.Design != DesignSP {
		return c.Ways
	}
	if actor == model.ActorV {
		return c.VictimWays
	}
	return c.Ways - c.VictimWays
}

// layout computes the concrete page numbers a benchmark uses. All tested
// addresses share set index T = sbase % nsets; filler pools are placed well
// clear of the secure region.
type layout struct {
	sbase    uint64 // first secure page (the known address a)
	secRange int
	nsets    uint64
	// pools of set-T pages for primes, one per step position.
	pool  [3][]uint64
	u     map[bool]uint64 // mapped -> u page
	a     uint64
	alias uint64
}

// dataBasePage is the virtual page where benchmark data begins
// (asm.DefaultDataBase >> 12); it is a multiple of the set count, so the
// tested set T is 0.
const dataBasePage = 0x1000

// sameAddrMapped reports whether the vulnerability's informative scenario
// is u == a (as opposed to a set conflict).
func sameAddrMapped(v model.Vulnerability) bool {
	return len(v.MappedScenarios) > 0 && v.MappedScenarios[0] == model.ScenSameAddr
}

func (c Config) layoutFor(v model.Vulnerability) layout {
	l := layout{
		sbase:    dataBasePage,
		secRange: c.Params.SecRangeFor(v),
		nsets:    uint64(c.nsets()),
		u:        map[bool]uint64{},
	}
	l.a = l.sbase
	l.alias = l.sbase + l.nsets // same set as a, still inside the big region
	for step := 0; step < 3; step++ {
		base := l.sbase + 0x40 + uint64(step)*0x40
		for k := 0; k < c.Ways; k++ {
			l.pool[step] = append(l.pool[step], base+uint64(k)*l.nsets)
		}
	}
	if sameAddrMapped(v) {
		// The informative behaviour is u == a.
		l.u[true] = l.a
		l.u[false] = l.sbase + 1 // different page (and different set)
	} else {
		// The informative behaviour is a set conflict.
		l.u[true] = l.sbase // set T
		if uses(v, model.ClassA) || uses(v, model.ClassAInv) {
			// Keep u distinct from the probed a when a is in play.
			l.u[true] = l.sbase + l.nsets
		}
		l.u[false] = l.sbase + 1 // set T+1
	}
	return l
}

// uses reports whether any step of v has the given class.
func uses(v model.Vulnerability, cl model.Class) bool {
	for _, s := range v.Pattern {
		if s.Class == cl {
			return true
		}
	}
	return false
}

// Generate emits the assembly source of the micro security benchmark for
// one vulnerability and one victim behaviour. Base (Table 2) and extended
// (Table 7) vulnerabilities are both supported; ★ patterns are not concrete
// programs.
func (c Config) Generate(v model.Vulnerability, mapped bool) (string, error) {
	if c.Entries <= 0 || c.Ways <= 0 || c.Entries%c.Ways != 0 {
		return "", fmt.Errorf("secbench: bad geometry %d/%d", c.Entries, c.Ways)
	}
	if len(v.MappedScenarios) == 0 {
		return "", fmt.Errorf("secbench: %s has no informative scenario", v.Pattern)
	}
	for _, s := range v.Pattern {
		if s == model.Star {
			return "", fmt.Errorf("secbench: pattern %s contains ★ and has no concrete program", v.Pattern)
		}
	}
	l := c.layoutFor(v)
	var b strings.Builder
	pages := map[uint64]bool{}
	touch := func(p uint64) { pages[p] = true }

	fmt.Fprintf(&b, "# Micro security benchmark: %s\n", v)
	fmt.Fprintf(&b, "# strategy: %s  macro: %s  design: %s  variant: mapped=%v\n",
		v.Strategy, v.Macro, c.Design, mapped)
	fmt.Fprintf(&b, "\tcsrwi victim_asid, %d\n", victimASID)
	fmt.Fprintf(&b, "\tcsrwi sbase, %d\n", l.sbase)
	fmt.Fprintf(&b, "\tcsrwi ssize, %d\n", l.secRange)
	fmt.Fprintf(&b, "\tcsrwi tlb_flush_all, 0      # known initial state\n")

	asid := func(a model.Actor) int {
		if a == model.ActorV {
			return victimASID
		}
		return attackerASID
	}
	secure := func(actor model.Actor, page uint64) bool {
		return actor == model.ActorV && page >= l.sbase && page < l.sbase+uint64(l.secRange)
	}
	access := func(actor model.Actor, page uint64) {
		touch(page)
		op := "ldnorm"
		if secure(actor, page) {
			op = "ldrand"
		}
		fmt.Fprintf(&b, "\tli x1, %#x\n", page<<12)
		fmt.Fprintf(&b, "\t%s x2, 0(x1)\n", op)
	}
	invalidate := func(page uint64) {
		touch(page)
		fmt.Fprintf(&b, "\tli x1, %#x\n", page<<12)
		fmt.Fprintf(&b, "\tcsrw tlb_flush_page_all, x1\n")
	}

	// probePage is what Step 3 re-touches (or invalidates) for set-conflict
	// patterns: the page placed first (LRU) by the Step 1 prime, or u.
	probePage := l.a
	primeMode := !sameAddrMapped(v)

	// invTarget resolves the page a targeted invalidation refers to.
	invTarget := func(cl model.Class, idx int) uint64 {
		switch cl.IsTargetedInvalidation() {
		case true:
			switch {
			case cl == model.ClassUInv:
				return l.u[mapped]
			case cl == model.ClassAInv:
				if primeMode && idx == 2 {
					return probePage
				}
				return l.a
			case cl == model.ClassAliasInv:
				return l.alias
			default: // ClassDInv
				if primeMode {
					return probePage
				}
				return l.pool[idx][0]
			}
		}
		return 0
	}

	emitStep := func(idx int, s model.State) {
		fmt.Fprintf(&b, "\t# --- Step %d: %s ---\n", idx+1, s)
		if s.Class != model.ClassInvAll {
			fmt.Fprintf(&b, "\tcsrwi process_id, %d\n", asid(s.Actor))
		}
		switch {
		case s.Class == model.ClassInvAll:
			fmt.Fprintf(&b, "\tcsrwi tlb_flush_all, 0\n")
		case s.Class.IsTargetedInvalidation():
			invalidate(invTarget(s.Class, idx))
		case s.Class == model.ClassU:
			access(s.Actor, l.u[mapped])
		case !primeMode:
			// u == a patterns: single accesses everywhere.
			switch s.Class {
			case model.ClassA:
				access(s.Actor, l.a)
			case model.ClassAlias:
				access(s.Actor, l.alias)
			case model.ClassD:
				access(s.Actor, l.pool[idx][0])
			}
		default:
			// Set-conflict patterns.
			ways := c.primeWays(s.Actor)
			switch idx {
			case 0:
				// Prime: probed page first (becoming the LRU candidate),
				// then fillers until the actor's ways are full.
				page := l.pool[0][0]
				if s.Class == model.ClassA {
					page = l.a
				}
				probePage = page
				access(s.Actor, page)
				for k := 0; k < ways-1; k++ {
					access(s.Actor, l.pool[1][k])
				}
			case 1:
				// Middle prime (Evict+Time / Bernstein shapes): fill the
				// whole partition so the Step 1 entry is displaced.
				page := l.pool[1][0]
				if s.Class == model.ClassA {
					page = l.a
				}
				access(s.Actor, page)
				for k := 0; k < ways-1; k++ {
					access(s.Actor, l.pool[2][k])
				}
			case 2:
				access(s.Actor, probePage)
			}
		}
	}

	emitStep(0, v.Pattern[0])
	emitStep(1, v.Pattern[1])

	// Step 3 is timed. Accesses are bracketed with tlb_miss_count reads
	// (Figure 6); invalidations with cycle reads, the presence of the entry
	// showing up as one extra cycle (Appendix B).
	s3 := v.Pattern[2]
	fmt.Fprintf(&b, "\t# --- Step 3 (timed): %s ---\n", s3)
	fmt.Fprintf(&b, "\tcsrwi process_id, %d\n", asid(s3.Actor))
	if s3.Class.IsTargetedInvalidation() {
		page := invTarget(s3.Class, 2)
		touch(page)
		fmt.Fprintf(&b, "\tcsrr x28, cycle\n")
		fmt.Fprintf(&b, "\tli x1, %#x\n", page<<12)
		fmt.Fprintf(&b, "\tcsrw tlb_flush_page_all, x1\n")
		fmt.Fprintf(&b, "\tcsrr x29, cycle\n")
		fmt.Fprintf(&b, "\tsub x30, x29, x28\n")
		fmt.Fprintf(&b, "\taddi x30, x30, -%d        # x30 != 0 means slow (entry was present)\n",
			invMeasureBaseline)
	} else {
		fmt.Fprintf(&b, "\tcsrr x28, tlb_miss_count\n")
		switch {
		case s3.Class == model.ClassU:
			access(s3.Actor, l.u[mapped])
		case !primeMode:
			switch s3.Class {
			case model.ClassAlias:
				access(s3.Actor, l.alias)
			case model.ClassA:
				access(s3.Actor, l.a)
			default:
				access(s3.Actor, l.pool[2][0])
			}
		default:
			access(s3.Actor, probePage)
		}
		fmt.Fprintf(&b, "\tcsrr x29, tlb_miss_count\n")
		fmt.Fprintf(&b, "\tsub x30, x29, x28          # x30 != 0 means slow (TLB miss)\n")
	}
	fmt.Fprintf(&b, "\tpass\n")

	// Data region: one resident dword per touched page, placed with .org.
	// The secure region must be fully mapped regardless of which pages a
	// particular variant touches, because the Random Fill Engine may draw
	// any page in it (footnote 5: the OS pre-generates those entries).
	for p := l.sbase; p < l.sbase+uint64(l.secRange); p++ {
		touch(p)
	}
	fmt.Fprintf(&b, ".data\n")
	for _, p := range sortedPages(pages) {
		fmt.Fprintf(&b, ".org %#x\n", p<<12)
		fmt.Fprintf(&b, "\t.dword %#x\n", p)
	}
	return b.String(), nil
}

func sortedPages(set map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// NewTLB constructs the configured TLB over a walker, ready for a campaign.
func (c Config) NewTLB(w tlb.Walker, seed uint64) (tlb.TLB, error) {
	return c.Design.New(c.Entries, c.Ways, c.VictimWays, seed, c.RekeyFills, w)
}
