package tlb

import "fmt"

// SetAssoc is the standard set-associative TLB of the paper ("SA TLB"),
// with true LRU replacement within each set. Entries are tagged with the
// process ID (ASID), so a hit requires both the page number and the ASID to
// match — this alone is what lets the standard SA TLB defend the paper's 10
// hit-between-processes vulnerability types (Table 4).
//
// A fully-associative TLB ("FA TLB") is a SetAssoc with ways == entries; the
// paper's TLB-disabled approximation ("1E") is a SetAssoc with one entry.
type SetAssoc struct {
	geom    geometry
	timing  Timing
	walker  Walker
	sets    [][]entry
	backing []entry // contiguous storage behind sets, cleared whole on FlushAll
	clock   uint64
	stats   Stats
	hook    *FaultHook
}

var _ TLB = (*SetAssoc)(nil)

// NewSetAssoc returns an SA TLB with the given capacity and associativity.
// entries must be a positive multiple of ways.
func NewSetAssoc(entries, ways int, walker Walker) (*SetAssoc, error) {
	g, err := newGeometry(entries, ways)
	if err != nil {
		return nil, err
	}
	if walker == nil {
		return nil, fmt.Errorf("tlb: walker must not be nil")
	}
	t := &SetAssoc{geom: g, timing: DefaultTiming, walker: walker}
	t.sets, t.backing = newSets(g)
	return t, nil
}

// NewFullyAssoc returns an FA TLB: a single set spanning all entries.
func NewFullyAssoc(entries int, walker Walker) (*SetAssoc, error) {
	return NewSetAssoc(entries, entries, walker)
}

// NewSingleEntry returns the paper's "1E" configuration, the closest
// realisable approximation to disabling the TLB.
func NewSingleEntry(walker Walker) (*SetAssoc, error) {
	return NewSetAssoc(1, 1, walker)
}

// SetTiming overrides the lookup latency parameters.
func (t *SetAssoc) SetTiming(tm Timing) { t.timing = tm }

// Name implements TLB.
func (t *SetAssoc) Name() string { return "SA " + t.geom.geomName() }

// Entries implements TLB.
func (t *SetAssoc) Entries() int { return t.geom.entries }

// Ways implements TLB.
func (t *SetAssoc) Ways() int { return t.geom.ways }

// Stats implements TLB.
func (t *SetAssoc) Stats() Stats { return t.stats }

// MissHitCounts implements CounterReader.
func (t *SetAssoc) MissHitCounts() (uint64, uint64) { return t.stats.Misses, t.stats.Hits }

// ResetStats implements TLB.
func (t *SetAssoc) ResetStats() { t.stats = Stats{} }

// find returns the way index holding (asid, vpn) in set s, or -1.
func (t *SetAssoc) find(s int, asid ASID, vpn VPN) int {
	set := t.sets[s]
	for w := range set {
		e := &set[w]
		if e.Valid && e.VPN == vpn && e.ASID == asid {
			return w
		}
	}
	return -1
}

// newSets allocates a set array over one contiguous backing slice, set i
// at backing[i*ways:]: FlushAll clears the backing in a single memclr and
// SnapshotAppend copies it, set-major, in a single memmove.
func newSets(g geometry) ([][]entry, []entry) {
	sets := make([][]entry, g.sets)
	backing := make([]entry, g.entries)
	rest := backing
	for i := range sets {
		sets[i], rest = rest[:g.ways], rest[g.ways:]
	}
	return sets, backing
}

// findOrVictim scans set once, returning the way holding (asid, vpn) — with
// victim == -1 — or hit == -1 together with the fill victim lruWay would
// choose: the first invalid way, else the least recently used. A miss
// previously scanned the set twice (lookup, then victim selection); lookups
// are the simulator's innermost loop, so the fused scan matters.
func findOrVictim(set []entry, asid ASID, vpn VPN) (hit, victim int) {
	inv := -1
	oldest := ^uint64(0)
	for w := range set {
		e := &set[w]
		if e.Valid {
			if e.VPN == vpn && e.ASID == asid {
				return w, -1
			}
			if e.Stamp < oldest {
				victim, oldest = w, e.Stamp
			}
		} else if inv < 0 {
			inv = w
		}
	}
	if inv >= 0 {
		return -1, inv
	}
	return -1, victim
}

// findOrVictimIn is findOrVictim with the victim confined to ways [lo, hi):
// the SP TLB hits on every way but fills within the requester's partition.
func findOrVictimIn(set []entry, asid ASID, vpn VPN, lo, hi int) (hit, victim int) {
	inv := -1
	oldest := ^uint64(0)
	victim = lo
	for w := range set {
		e := &set[w]
		if e.Valid {
			if e.VPN == vpn && e.ASID == asid {
				return w, -1
			}
			if lo <= w && w < hi && e.Stamp < oldest {
				victim, oldest = w, e.Stamp
			}
		} else if inv < 0 && lo <= w && w < hi {
			inv = w
		}
	}
	if inv >= 0 {
		return -1, inv
	}
	return -1, victim
}

// lruWay returns the fill target in set s: an invalid way if one exists,
// otherwise the least-recently-used way.
func lruWay(set []entry) int {
	victim, oldest := 0, ^uint64(0)
	for w := range set {
		if !set[w].Valid {
			return w
		}
		if set[w].Stamp < oldest {
			victim, oldest = w, set[w].Stamp
		}
	}
	return victim
}

// Translate implements TLB.
func (t *SetAssoc) Translate(asid ASID, vpn VPN) (Result, error) {
	var res Result
	err := t.translate(asid, vpn, &res)
	return res, err
}

// TranslateCycles implements FastTranslator.
func (t *SetAssoc) TranslateCycles(asid ASID, vpn VPN) (uint64, error) {
	var res Result
	err := t.translate(asid, vpn, &res)
	return res.Cycles, err
}

func (t *SetAssoc) translate(asid ASID, vpn VPN, res *Result) error {
	t.hook.access()
	t.stats.Lookups++
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
	// The walker never touches the array, so the probe's victim way is
	// still current after the walk.
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
func (t *SetAssoc) Probe(asid ASID, vpn VPN) bool {
	return t.find(t.geom.setIndex(vpn), asid, vpn) >= 0
}

// FlushAll implements TLB.
func (t *SetAssoc) FlushAll() {
	// The sets share one contiguous backing array (see the constructor),
	// so the whole TLB clears with a single memclr.
	clear(t.backing)
	t.stats.Flushes++
}

// FlushASID implements TLB.
func (t *SetAssoc) FlushASID(asid ASID) {
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
func (t *SetAssoc) FlushPage(asid ASID, vpn VPN) bool {
	s := t.geom.setIndex(vpn)
	t.stats.Flushes++
	if w := t.find(s, asid, vpn); w >= 0 {
		t.sets[s][w] = entry{}
		return true
	}
	return false
}

// valid returns the number of valid entries; used by tests and invariants.
func (t *SetAssoc) validCount() int {
	n := 0
	for s := range t.sets {
		for w := range t.sets[s] {
			if t.sets[s][w].Valid {
				n++
			}
		}
	}
	return n
}

// FlushPageAllASIDs implements TLB.
func (t *SetAssoc) FlushPageAllASIDs(vpn VPN) bool {
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
