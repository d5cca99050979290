package tlb

import "fmt"

// array is the set-associative array every single-array design is built
// on: the sets over one contiguous backing slice, the LRU clock, the
// performance counters, the page table walker and the fault hook. It
// defines once what SA, SP, RF, RI and FS share — the accessors, the
// counters, the whole-array flushes, the snapshot and fault surface, the
// fused hit-or-victim scans, the hit bookkeeping, the demand fill and the
// fill install — so a design file holds only its policy: the index
// function, the fill range, the miss handling and any flush trigger of its
// own. Each design's translate runs the scan itself, so the scan inlines
// into every lookup.
type array struct {
	geom    geometry
	walker  Walker
	sets    [][]entry
	backing []entry // contiguous storage behind sets, cleared whole on FlushAll
	clock   uint64
	stats   Stats
	hook    *FaultHook
	kind    string // design prefix of Name, e.g. "SA"
}

// newArray validates the geometry and walker and allocates an empty array.
func newArray(kind string, entries, ways int, walker Walker) (array, error) {
	g, err := newGeometry(entries, ways)
	if err != nil {
		return array{}, err
	}
	if walker == nil {
		return array{}, fmt.Errorf("tlb: walker must not be nil")
	}
	a := array{geom: g, walker: walker, kind: kind}
	a.sets, a.backing = newSets(g)
	return a, nil
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

// clone returns a deep copy of the array bound to w. Fault hooks are
// per-instance campaign state and are deliberately not inherited.
func (a *array) clone(w Walker) array {
	n := *a
	n.walker = w
	n.sets, n.backing = newSets(a.geom)
	copy(n.backing, a.backing)
	n.hook = nil
	return n
}

// Name implements TLB.
func (a *array) Name() string { return a.kind + " " + a.geom.geomName() }

// Entries implements TLB.
func (a *array) Entries() int { return a.geom.entries }

// Ways implements TLB.
func (a *array) Ways() int { return a.geom.ways }

// Stats implements TLB.
func (a *array) Stats() Stats { return a.stats }

// MissHitCounts implements CounterReader.
func (a *array) MissHitCounts() (uint64, uint64) { return a.stats.Misses, a.stats.Hits }

// ResetStats implements TLB.
func (a *array) ResetStats() { a.stats = Stats{} }

// FlushAll implements TLB. The sets share one contiguous backing array, so
// the whole TLB clears with a single memclr.
func (a *array) FlushAll() {
	clear(a.backing)
	a.stats.Flushes++
}

// FlushASID implements TLB.
func (a *array) FlushASID(asid ASID) {
	for i := range a.backing {
		if e := &a.backing[i]; e.Valid && e.ASID == asid {
			*e = entry{}
		}
	}
	a.stats.Flushes++
}

// SnapshotAppend implements Inspectable.
func (a *array) SnapshotAppend(dst []EntrySnapshot) []EntrySnapshot {
	return append(dst, a.backing...)
}

// CorruptEntry implements Inspectable.
func (a *array) CorruptEntry(set, way int, f func(*EntrySnapshot)) bool {
	if set < 0 || set >= len(a.sets) || way < 0 || way >= len(a.sets[set]) || !a.sets[set][way].Valid {
		return false
	}
	f(&a.sets[set][way])
	return true
}

// SetFaultHook implements Inspectable.
func (a *array) SetFaultHook(h *FaultHook) { a.hook = h }

// find returns the way index holding (asid, vpn) in set s, or -1.
func (a *array) find(s int, asid ASID, vpn VPN) int {
	set := a.sets[s]
	for w := range set {
		e := &set[w]
		if e.Valid && e.VPN == vpn && e.ASID == asid {
			return w
		}
	}
	return -1
}

// findOrVictim scans set once, returning the way holding (asid, vpn) — with
// victim == -1 — or hit == -1 together with the fill victim lruWay would
// choose: the first invalid way, else the least recently used. Lookups are
// the simulator's innermost loop, so a miss must not scan the set twice
// (lookup, then victim selection).
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

// hit records a hit on entry e, at way w of set s: it refreshes the LRU
// stamp (unless the fault hook holds it) and counts the hit. Every design's
// translate runs the fused scan itself — the design picks findOrVictim or
// SP's findOrVictimIn — and calls hit on a match. It returns the entry's
// PPN. The hooked stamp refresh sits behind a call so this body stays
// within the inlining budget: a hit is the simulator's innermost path.
func (a *array) hit(e *entry, s, w int) PPN {
	if a.hook == nil {
		e.Stamp = a.clock
	} else {
		a.touchHooked(s, w)
	}
	a.stats.Hits++
	return e.PPN
}

// touchHooked is the stamp refresh of a hit with a fault hook armed.
func (a *array) touchHooked(s, w int) {
	if a.hook.touchAllowed(s, w) {
		a.sets[s][w].Stamp = a.clock
	}
}

// demandFill serves a miss the way every design but RF does: count it,
// walk the page table and install the translation into the victim way the
// fused scan chose, inside the fill range [lo, hi). The walker never
// touches the array, so that way is still current after the walk.
func (a *array) demandFill(s, victim, lo, hi int, asid ASID, vpn VPN, res *Result) error {
	a.stats.Misses++
	ppn, walkCycles, err := a.walker.Walk(asid, vpn)
	res.Cycles = hitCycles + walkCycles
	if err != nil {
		return err
	}
	res.PPN, res.Filled = ppn, true
	if a.hook != nil && a.hook.OnFill != nil {
		a.installHooked(s, victim, lo, hi, asid, vpn, ppn, false, res)
	} else {
		a.install(s, victim, asid, vpn, ppn, false, res)
	}
	a.stats.Fills++
	return nil
}

// install writes (asid, vpn → ppn, sec) into way w of set s, a way known
// not to hold the translation, and reports any eviction in res. Callers
// dispatch to installHooked themselves when an OnFill fault hook is armed:
// the hook branch lives at the call sites because a call in this body
// would push it past the inlining budget, and this store is the innermost
// write of every simulated campaign.
func (a *array) install(s, w int, asid ASID, vpn VPN, ppn PPN, sec bool, res *Result) {
	e := &a.sets[s][w]
	if e.Valid {
		res.Evicted, res.EvictedVPN, res.EvictedASID = true, e.VPN, e.ASID
		a.stats.Evictions++
	}
	*e = entry{Valid: true, ASID: asid, VPN: vpn, PPN: ppn, Sec: sec, Stamp: a.clock}
}

// installHooked is install with an OnFill fault hook armed. A FillDrop
// loses the array write; the caller still counts and reports the fill, as
// the control logic believes it happened. A FillDuplicate also writes the
// next way of the fill range [lo, hi): the decoder fault asserts a second
// way-enable inside the same range.
func (a *array) installHooked(s, w, lo, hi int, asid ASID, vpn VPN, ppn PPN, sec bool, res *Result) {
	action := a.hook.fillAction(s, w)
	if action == FillDrop {
		return
	}
	a.install(s, w, asid, vpn, ppn, sec, res)
	if action == FillDuplicate {
		if w2 := lo + (w-lo+1)%(hi-lo); w2 != w {
			a.sets[s][w2] = a.sets[s][w]
		}
	}
}

// plainArray is the array indexed by the low bits of the page number —
// every design except the keyed RI TLB. It adds the set-index capability
// and the page-targeted operations, which index one set.
type plainArray struct{ array }

// Probe implements TLB.
func (a *plainArray) Probe(asid ASID, vpn VPN) bool {
	return a.find(a.geom.setIndex(vpn), asid, vpn) >= 0
}

// FlushPage implements TLB.
func (a *plainArray) FlushPage(asid ASID, vpn VPN) bool {
	s := a.geom.setIndex(vpn)
	a.stats.Flushes++
	if w := a.find(s, asid, vpn); w >= 0 {
		a.sets[s][w] = entry{}
		return true
	}
	return false
}

// FlushPageAllASIDs implements TLB. The invalidation is address-based: it
// removes every process's entry for the page, across SP's partition
// boundary and regardless of RF's Sec bit.
func (a *plainArray) FlushPageAllASIDs(vpn VPN) bool {
	s := a.geom.setIndex(vpn)
	a.stats.Flushes++
	any := false
	for w := range a.sets[s] {
		if e := &a.sets[s][w]; e.Valid && e.VPN == vpn {
			*e = entry{}
			any = true
		}
	}
	return any
}

// secureRegs are the software-managed security registers of paper §4.2.2:
// the victim process ID and the secure page range [sbase, sbase+ssize).
// SP acts on the victim only, RF and FS on both.
type secureRegs struct {
	victim    ASID
	hasVictim bool
	sbase     VPN
	ssize     uint64
}

// SetVictim implements SecureTLB: it designates the process ID to protect.
// Entries already in the array are unaffected, mirroring hardware where the
// register change does not rewrite the array.
func (r *secureRegs) SetVictim(asid ASID) { r.victim, r.hasVictim = asid, true }

// Victim implements SecureTLB.
func (r *secureRegs) Victim() ASID { return r.victim }

// SetSecureRegion implements SecureTLB (in units of pages).
func (r *secureRegs) SetSecureRegion(sbase VPN, ssize uint64) { r.sbase, r.ssize = sbase, ssize }

// SecureRegion implements SecureTLB.
func (r *secureRegs) SecureRegion() (VPN, uint64) { return r.sbase, r.ssize }

// secure reports whether (asid, vpn) lies in the victim's secure region.
func (r *secureRegs) secure(asid ASID, vpn VPN) bool {
	return r.hasVictim && asid == r.victim && r.ssize > 0 &&
		vpn >= r.sbase && uint64(vpn-r.sbase) < r.ssize
}
