package tlb

import "fmt"

// FlushOnSwitch is the flush-based secure TLB ("FS TLB"), a SIMF-style
// design point: a standard set-associative array (identical lookup, LRU and
// fill behaviour to the SA TLB) that invalidates its whole contents
//
//   - on every ASID/context switch, and
//   - when the victim process leaves its secure region (a secure-region
//     exit), so even a same-process continuation cannot probe what the
//     secure code left behind.
//
// The context switch is observed at the moment the OS writes the process-ID
// CSR (ObserveASID, wired from the CPU and the trace VM), matching the
// single-instruction-multiple-flush semantics: by the time the incoming
// process issues its first access, nothing of the previous context remains.
// Harnesses that drive Translate directly without CSR writes are covered by
// a fallback — a lookup under a new ASID performs the same flush first.
//
// No cross-context state survives a switch, so the design needs neither
// partitioning nor randomization: its security argument is erasure.
type FlushOnSwitch struct {
	geom    geometry
	timing  Timing
	walker  Walker
	sets    [][]entry
	backing []entry // contiguous storage behind sets, cleared whole on flush
	clock   uint64
	stats   Stats
	hook    *FaultHook

	victim    ASID
	hasVictim bool
	sbase     VPN
	ssize     uint64

	cur        ASID // current context, valid when hasCur
	hasCur     bool
	lastSecure bool // the context's previous access was inside the secure region
}

var (
	_ SecureTLB      = (*FlushOnSwitch)(nil)
	_ FastTranslator = (*FlushOnSwitch)(nil)
	_ CounterReader  = (*FlushOnSwitch)(nil)
	_ ASIDObserver   = (*FlushOnSwitch)(nil)
)

// NewFlushOnSwitch returns an FS TLB with the given capacity and
// associativity.
func NewFlushOnSwitch(entries, ways int, walker Walker) (*FlushOnSwitch, error) {
	g, err := newGeometry(entries, ways)
	if err != nil {
		return nil, err
	}
	if walker == nil {
		return nil, fmt.Errorf("tlb: walker must not be nil")
	}
	t := &FlushOnSwitch{geom: g, timing: DefaultTiming, walker: walker}
	t.sets, t.backing = newSets(g)
	return t, nil
}

// SetTiming overrides the lookup latency parameters.
func (t *FlushOnSwitch) SetTiming(tm Timing) { t.timing = tm }

// Name implements TLB.
func (t *FlushOnSwitch) Name() string { return "FS " + t.geom.geomName() }

// Entries implements TLB.
func (t *FlushOnSwitch) Entries() int { return t.geom.entries }

// Ways implements TLB.
func (t *FlushOnSwitch) Ways() int { return t.geom.ways }

// Stats implements TLB.
func (t *FlushOnSwitch) Stats() Stats { return t.stats }

// MissHitCounts implements CounterReader.
func (t *FlushOnSwitch) MissHitCounts() (uint64, uint64) { return t.stats.Misses, t.stats.Hits }

// ResetStats implements TLB.
func (t *FlushOnSwitch) ResetStats() { t.stats = Stats{} }

// SetVictim implements SecureTLB.
func (t *FlushOnSwitch) SetVictim(asid ASID) { t.victim, t.hasVictim = asid, true }

// Victim implements SecureTLB.
func (t *FlushOnSwitch) Victim() ASID { return t.victim }

// SetSecureRegion implements SecureTLB (pages [sbase, sbase+ssize)).
func (t *FlushOnSwitch) SetSecureRegion(sbase VPN, ssize uint64) { t.sbase, t.ssize = sbase, ssize }

// SecureRegion implements SecureTLB.
func (t *FlushOnSwitch) SecureRegion() (VPN, uint64) { return t.sbase, t.ssize }

// secure reports whether (asid, vpn) lies in the victim's secure region.
func (t *FlushOnSwitch) secure(asid ASID, vpn VPN) bool {
	return t.hasVictim && asid == t.victim && t.ssize > 0 &&
		vpn >= t.sbase && uint64(vpn-t.sbase) < t.ssize
}

// autoFlush performs the design's own full invalidation (switch or
// secure-region exit). The fault hook may drop it — a lost flush strobe —
// which is exactly the flushsw-flush-dropped injection site.
func (t *FlushOnSwitch) autoFlush() {
	if !t.hook.autoFlushAllowed() {
		return
	}
	clear(t.backing)
	t.stats.Flushes++
}

// ObserveASID implements ASIDObserver: a context switch flushes the array
// before the incoming process can issue a single access.
func (t *FlushOnSwitch) ObserveASID(asid ASID) {
	if t.hasCur && asid == t.cur {
		return
	}
	if t.hasCur {
		t.autoFlush()
	}
	t.cur, t.hasCur, t.lastSecure = asid, true, false
}

func (t *FlushOnSwitch) find(s int, asid ASID, vpn VPN) int {
	set := t.sets[s]
	for w := range set {
		e := &set[w]
		if e.Valid && e.VPN == vpn && e.ASID == asid {
			return w
		}
	}
	return -1
}

// Translate implements TLB.
func (t *FlushOnSwitch) Translate(asid ASID, vpn VPN) (Result, error) {
	var res Result
	err := t.translate(asid, vpn, &res)
	return res, err
}

// TranslateCycles implements FastTranslator.
func (t *FlushOnSwitch) TranslateCycles(asid ASID, vpn VPN) (uint64, error) {
	var res Result
	err := t.translate(asid, vpn, &res)
	return res.Cycles, err
}

func (t *FlushOnSwitch) translate(asid ASID, vpn VPN, res *Result) error {
	t.hook.access()
	t.stats.Lookups++
	// Fallback switch detection for harnesses without CSR writes; a no-op
	// when ObserveASID already saw this context.
	t.ObserveASID(asid)
	sec := t.secure(asid, vpn)
	if t.lastSecure && !sec {
		t.autoFlush()
	}
	t.lastSecure = sec
	s := t.geom.setIndex(vpn)
	t.clock++
	hit, victim := findOrVictim(t.sets[s], asid, vpn)
	if hit >= 0 {
		e := &t.sets[s][hit]
		if t.hook.touchAllowed(s, hit) {
			e.Stamp = t.clock
		}
		t.stats.Hits++
		res.PPN, res.Hit, res.Cycles = e.PPN, true, t.timing.HitCycles
		return nil
	}
	t.stats.Misses++
	ppn, walkCycles, err := t.walker.Walk(asid, vpn)
	res.Cycles = t.timing.HitCycles + walkCycles
	if err != nil {
		return err
	}
	res.PPN, res.Filled = ppn, true
	w := victim
	action := t.hook.fillAction(s, w)
	if action == FillDrop {
		// Lost array write: the control logic still counts the fill.
		t.stats.Fills++
		return nil
	}
	e := &t.sets[s][w]
	if e.Valid {
		res.Evicted, res.EvictedVPN, res.EvictedASID = true, e.VPN, e.ASID
		t.stats.Evictions++
	}
	*e = entry{Valid: true, ASID: asid, VPN: vpn, PPN: ppn, Stamp: t.clock}
	t.stats.Fills++
	if action == FillDuplicate {
		if w2 := (w + 1) % len(t.sets[s]); w2 != w {
			t.sets[s][w2] = *e
		}
	}
	return nil
}

// Probe implements TLB.
func (t *FlushOnSwitch) Probe(asid ASID, vpn VPN) bool {
	return t.find(t.geom.setIndex(vpn), asid, vpn) >= 0
}

// FlushAll implements TLB. An external full flush also resets the
// context-tracking state: campaign trials reset through FlushAll, and the
// switch/exit bookkeeping must be a pure function of the trial's own
// accesses for sharded and serial runs to stay bit-identical.
func (t *FlushOnSwitch) FlushAll() {
	clear(t.backing)
	t.stats.Flushes++
	t.hasCur = false
	t.lastSecure = false
}

// FlushASID implements TLB.
func (t *FlushOnSwitch) FlushASID(asid ASID) {
	for s := range t.sets {
		for w := range t.sets[s] {
			if t.sets[s][w].Valid && t.sets[s][w].ASID == asid {
				t.sets[s][w] = entry{}
			}
		}
	}
	t.stats.Flushes++
}

// FlushPage implements TLB.
func (t *FlushOnSwitch) FlushPage(asid ASID, vpn VPN) bool {
	s := t.geom.setIndex(vpn)
	t.stats.Flushes++
	if w := t.find(s, asid, vpn); w >= 0 {
		t.sets[s][w] = entry{}
		return true
	}
	return false
}

// FlushPageAllASIDs implements TLB.
func (t *FlushOnSwitch) FlushPageAllASIDs(vpn VPN) bool {
	s := t.geom.setIndex(vpn)
	t.stats.Flushes++
	any := false
	for w := range t.sets[s] {
		e := &t.sets[s][w]
		if e.Valid && e.VPN == vpn {
			*e = entry{}
			any = true
		}
	}
	return any
}
