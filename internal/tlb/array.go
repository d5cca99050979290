package tlb

import "fmt"

// array is the set-associative array every single-array design is built
// on: the entries of every set in one contiguous backing slice, the packed
// match shadow the lookups scan, the per-set recency lists the fills take
// their victim from, the LRU clock, the performance counters, the page
// table walker and the fault hook. It defines once what SA, SP, RF, RI and
// FS share — the accessors, the counters, the whole-array flushes, the
// snapshot and fault surface, the tag match, the victim choice, the hit
// bookkeeping, the demand fill and the fill install — so a design file
// holds only its policy: the index function, the fill range, the miss
// handling and any flush trigger of its own. Each design's translate runs
// the tag match itself, so the scan inlines into every lookup.
//
// backing is the source of truth: SnapshotAppend copies it and CorruptEntry
// mutates it in place. Two shadows are derived from it — the tag and ASID
// words a lookup scans instead of the 32-byte entries, and the recency
// lists a miss takes its victim from instead of rescanning the stamps —
// and only the core's writers keep them current: install, FillDuplicate
// and the single-way invalidations (put), the stamp refresh of a hit or of
// RF's colliding random fill (touch), the four flushes, CorruptEntry, the
// RI re-key (a FlushAll), SP's repartition (setSplit) and clone. The
// invariant, for way w of set s at index i = s*ways+w:
//
//   - tags[i] and ids[i] are backing[i]'s VPN and ASID+1 when it is valid,
//     and both 0 when it is not, so an invalid way never matches a lookup
//     (ASID words start at 1) and no stale tag survives a flush;
//   - each replacement region of set s — ways [0, split) and [split, ways)
//     — is one circular list, least recent first: the invalid ways in way
//     order, then the valid ways by (Stamp, way). The head of a region is
//     the fill victim true LRU defines: the first invalid way, else the
//     least recently used, the lowest way on a stamp tie.
type array struct {
	geom    geometry
	walker  Walker
	backing []entry  // the entries, set-major: set s at backing[s*ways:]
	tags    []VPN    // match shadow: VPN of each valid way, 0 if invalid
	ids     []uint32 // match shadow: ASID+1 of each valid way, 0 if invalid
	order   []link   // recency lists, ways+2 nodes per set (see link)
	fresh   []link   // order of an empty array; shared by clones, never written
	split   int      // first way of the second replacement region (SP's victimWays)
	clock   uint64
	stats   Stats
	hook    *FaultHook
	kind    string // design prefix of Name, e.g. "SA"
	// writes counts writes to backing outside translate (see Generation).
	// No lookup reads it, so it sits after every field a lookup does.
	writes uint64
}

// link is one node of a set's recency lists: nodes 0..ways-1 are the ways,
// node ways+r is the sentinel of replacement region r. older and newer are
// node indices within the set. A set without a second region (split 0)
// leaves region 0's sentinel pointing at itself.
type link struct{ older, newer int32 }

// newArray validates the geometry and walker and allocates an empty array
// with a single replacement region.
func newArray(kind string, entries, ways int, walker Walker) (array, error) {
	g, err := newGeometry(entries, ways)
	if err != nil {
		return array{}, err
	}
	if walker == nil {
		return array{}, fmt.Errorf("tlb: walker must not be nil")
	}
	a := array{geom: g, walker: walker, kind: kind}
	a.backing = make([]entry, g.entries)
	a.tags = make([]VPN, g.entries)
	a.ids = make([]uint32, g.entries)
	a.order = make([]link, g.sets*(g.ways+2))
	a.setSplit(0)
	return a, nil
}

// setSplit moves the boundary between the two replacement regions to way
// split and rebuilds every set's recency lists from backing. SP calls it
// with its victim partition size; every other design keeps split 0, one
// region spanning the set.
func (a *array) setSplit(split int) {
	a.split = split
	n := a.geom.ways + 2
	fresh := make([]link, len(a.order))
	for s := 0; s < a.geom.sets; s++ {
		ls := fresh[s*n : (s+1)*n]
		resetLists(ls, a.geom.ways)
		for w := 0; w < a.geom.ways; w++ {
			linkAfter(ls, ls[a.sentinel(w)].older, int32(w))
		}
	}
	a.fresh = fresh
	for s := 0; s < a.geom.sets; s++ {
		a.rebuild(s)
	}
}

// clone returns a deep copy of the array bound to w. Fault hooks are
// per-instance campaign state and are deliberately not inherited.
func (a *array) clone(w Walker) array {
	n := *a
	n.walker = w
	n.backing = append([]entry(nil), a.backing...)
	n.tags = append([]VPN(nil), a.tags...)
	n.ids = append([]uint32(nil), a.ids...)
	n.order = append([]link(nil), a.order...)
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

// FlushAll implements TLB. Entries and shadows are contiguous, so the whole
// TLB clears with three memclrs and one copy of the empty recency lists.
func (a *array) FlushAll() {
	clear(a.backing)
	clear(a.tags)
	clear(a.ids)
	copy(a.order, a.fresh)
	a.writes++
	a.stats.Flushes++
}

// FlushASID implements TLB.
func (a *array) FlushASID(asid ASID) {
	id := idOf(asid)
	for s := 0; s < a.geom.sets; s++ {
		base, any := s*a.geom.ways, false
		for i := base; i < base+a.geom.ways; i++ {
			if a.ids[i] == id {
				a.backing[i], a.tags[i], a.ids[i] = entry{}, 0, 0
				any = true
			}
		}
		if any {
			a.rebuild(s)
		}
	}
	a.writes++
	a.stats.Flushes++
}

// SnapshotAppend implements Inspectable.
func (a *array) SnapshotAppend(dst []EntrySnapshot) []EntrySnapshot {
	return append(dst, a.backing...)
}

// Generation returns the array's write generation: while it is unchanged,
// so is every entry SnapshotAppend would copy. It costs the lookup path
// nothing: every translate already advances the LRU clock before it can
// write an entry, and the writers that run outside a translate — FlushAll,
// FlushASID, sync (and so put, CorruptEntry and SP's repartition) — advance
// writes. Both counters only grow, so their sum moves whenever either does.
// The assertion monitor compares generations to skip re-snapshotting an
// array nothing wrote since its last check.
func (a *array) Generation() uint64 { return a.clock + a.writes }

// CorruptEntry implements Inspectable. The corruption may change any field,
// so the way's match shadow is re-derived and its set's recency lists are
// rebuilt from backing.
func (a *array) CorruptEntry(set, way int, f func(*EntrySnapshot)) bool {
	if set < 0 || set >= a.geom.sets || way < 0 || way >= a.geom.ways {
		return false
	}
	i := set*a.geom.ways + way
	if !a.backing[i].Valid {
		return false
	}
	f(&a.backing[i])
	a.sync(i)
	a.rebuild(set)
	return true
}

// SetFaultHook implements Inspectable.
func (a *array) SetFaultHook(h *FaultHook) { a.hook = h }

// idOf is the ASID word a valid way holds in ids; 0 marks an invalid way.
func idOf(asid ASID) uint32 { return uint32(asid) + 1 }

// match returns the way of set s holding (asid, vpn), or -1. It reads only
// the packed tag words, and the ASID word on a tag hit: every lookup, probe
// and page flush finds its way here, and the design's translate inlines it.
func (a *array) match(s int, asid ASID, vpn VPN) int {
	base := s * a.geom.ways
	tags := a.tags[base : base+a.geom.ways]
	for w, t := range tags {
		if t == vpn && a.ids[base+w] == idOf(asid) {
			return w
		}
	}
	return -1
}

// fillWay returns the fill target in the replacement region holding way lo
// of set s: its first invalid way, else its least recently used way — the
// head of the region's recency list.
func (a *array) fillWay(s, lo int) int {
	return int(a.order[s*(a.geom.ways+2)+a.sentinel(lo)].newer)
}

// sentinel is the node index of the sentinel of way w's replacement region.
func (a *array) sentinel(w int) int {
	if w < a.split {
		return a.geom.ways
	}
	return a.geom.ways + 1
}

// at returns way w of set s.
func (a *array) at(s, w int) *entry { return &a.backing[s*a.geom.ways+w] }

// hit records a hit at way w of set s: it refreshes the LRU stamp (unless
// the fault hook holds it) and counts the hit. Every design's translate
// runs the tag match itself and calls hit on a match. It returns the
// entry's PPN. The stamp refresh and the list move sit behind the one call
// to touch, so this body stays within the inlining budget: a hit is the
// simulator's innermost path.
func (a *array) hit(s, w int) PPN {
	a.touch(s, w, a.hook)
	a.stats.Hits++
	return a.backing[s*a.geom.ways+w].PPN
}

// touch stamps the valid way w of set s with the clock and moves it to the
// most recent end of its region's list, unless the fault hook h holds the
// stamp (only a hit passes its hook: RF's random fill refreshes a colliding
// entry regardless, and an install writes a fresh entry). Every other
// stamp in an array is older than the clock, so the way lands at once;
// the general placement serves only stamps that CorruptEntry moved or
// that a duplicated fill tied.
func (a *array) touch(s, w int, h *FaultHook) {
	if h != nil && !h.touchAllowed(s, w) {
		return
	}
	ways := a.geom.ways
	base := s * ways
	a.backing[base+w].Stamp = a.clock
	ls := a.order[base+2*s : base+2*s+ways+2]
	sen := a.sentinel(w)
	if int(ls[sen].older) == w {
		return // already the most recent way of its region
	}
	unlink(ls, int32(w))
	p := ls[sen].older // a way: w had a newer one
	if q := &a.backing[base+int(p)]; q.Valid && q.Stamp >= a.clock {
		a.place(s, w)
		return
	}
	linkAfter(ls, p, int32(w))
}

// demandFill serves a miss the way every design but RF does: count it,
// walk the page table and install the translation into the victim of the
// fill range [lo, hi). The walker never touches the array, so the victim
// is taken after the walk.
func (a *array) demandFill(s, lo, hi int, asid ASID, vpn VPN, res *Result) error {
	a.stats.Misses++
	ppn, walkCycles, err := a.walker.Walk(asid, vpn)
	res.Cycles = hitCycles + walkCycles
	if err != nil {
		return err
	}
	res.PPN, res.Filled = ppn, true
	a.install(s, a.fillWay(s, lo), lo, hi, asid, vpn, ppn, false, res)
	a.stats.Fills++
	return nil
}

// install writes (asid, vpn → ppn, sec) into way w of set s, a way known
// not to hold the translation, and reports any eviction in res. An armed
// OnFill fault hook may change the write: a FillDrop loses it (the caller
// still counts and reports the fill, as the control logic believes it
// happened), and a FillDuplicate also writes the next way of the fill
// range [lo, hi), the decoder fault asserting a second way-enable inside
// the same range.
func (a *array) install(s, w, lo, hi int, asid ASID, vpn VPN, ppn PPN, sec bool, res *Result) {
	action := FillProceed
	if a.hook != nil {
		action = a.hook.fillAction(s, w)
	}
	if action == FillDrop {
		return
	}
	i := s*a.geom.ways + w
	e := &a.backing[i]
	if e.Valid {
		res.Evicted, res.EvictedVPN, res.EvictedASID = true, e.VPN, e.ASID
		a.stats.Evictions++
	}
	*e = entry{Valid: true, ASID: asid, VPN: vpn, PPN: ppn, Sec: sec, Stamp: a.clock}
	a.tags[i], a.ids[i] = vpn, idOf(asid)
	a.touch(s, w, nil)
	if action == FillDuplicate {
		if w2 := lo + (w-lo+1)%(hi-lo); w2 != w {
			a.put(s, w2, *e)
		}
	}
}

// put writes e into way w of set s and brings the way's shadows up to
// date: the write path of duplicated fills and single-way invalidations.
func (a *array) put(s, w int, e entry) {
	i := s*a.geom.ways + w
	a.backing[i] = e
	a.sync(i)
	unlink(a.order[s*(a.geom.ways+2):(s+1)*(a.geom.ways+2)], int32(w))
	a.place(s, w)
}

// sync re-derives the match shadow of backing[i] after a write to it.
func (a *array) sync(i int) {
	a.writes++
	if e := &a.backing[i]; e.Valid {
		a.tags[i], a.ids[i] = e.VPN, idOf(e.ASID)
	} else {
		a.tags[i], a.ids[i] = 0, 0
	}
}

// place links the unlinked way w of set s into its region's recency list:
// an invalid way after the invalid ways below it, a valid way after every
// way with a smaller (Stamp, way), searching from the most recent end.
func (a *array) place(s, w int) {
	ways := a.geom.ways
	ls := a.order[s*(ways+2) : (s+1)*(ways+2)]
	base := s * ways
	sen := int32(a.sentinel(w))
	e := &a.backing[base+w]
	if !e.Valid {
		p := ls[sen].newer
		for p != sen && !a.backing[base+int(p)].Valid && int(p) < w {
			p = ls[p].newer
		}
		linkAfter(ls, ls[p].older, int32(w))
		return
	}
	p := ls[sen].older
	for p != sen {
		q := &a.backing[base+int(p)]
		if !q.Valid || q.Stamp < e.Stamp || q.Stamp == e.Stamp && int(p) < w {
			break
		}
		p = ls[p].older
	}
	linkAfter(ls, p, int32(w))
}

// rebuild derives set s's recency lists from backing: the invalid ways in
// way order, then every valid way placed by its stamp.
func (a *array) rebuild(s int) {
	ways := a.geom.ways
	ls := a.order[s*(ways+2) : (s+1)*(ways+2)]
	resetLists(ls, ways)
	for w := 0; w < ways; w++ {
		if !a.at(s, w).Valid {
			linkAfter(ls, ls[a.sentinel(w)].older, int32(w))
		}
	}
	for w := 0; w < ways; w++ {
		if a.at(s, w).Valid {
			a.place(s, w)
		}
	}
}

// resetLists empties both region lists of one set's nodes.
func resetLists(ls []link, ways int) {
	for r := int32(ways); r < int32(ways+2); r++ {
		ls[r] = link{r, r}
	}
}

// unlink takes node w out of its list.
func unlink(ls []link, w int32) {
	o, n := ls[w].older, ls[w].newer
	ls[o].newer, ls[n].older = n, o
}

// linkAfter inserts node w just after (newer than) node p.
func linkAfter(ls []link, p, w int32) {
	n := ls[p].newer
	ls[w] = link{p, n}
	ls[p].newer, ls[n].older = w, w
}

// flushVPN invalidates every valid way of set s whose tag is vpn, whatever
// its ASID, and reports whether there was one.
func (a *array) flushVPN(s int, vpn VPN) bool {
	base, any := s*a.geom.ways, false
	for w, t := range a.tags[base : base+a.geom.ways] {
		if t == vpn && a.ids[base+w] != 0 {
			a.put(s, w, entry{})
			any = true
		}
	}
	return any
}

// flushPage invalidates (asid, vpn) in set s and reports whether it was
// present.
func (a *array) flushPage(s int, asid ASID, vpn VPN) bool {
	a.stats.Flushes++
	if w := a.match(s, asid, vpn); w >= 0 {
		a.put(s, w, entry{})
		return true
	}
	return false
}

// plainArray is the array indexed by the low bits of the page number —
// every design except the keyed RI TLB. It adds the set-index capability
// and the page-targeted operations, which index one set.
type plainArray struct{ array }

// Probe implements TLB.
func (a *plainArray) Probe(asid ASID, vpn VPN) bool {
	return a.match(a.geom.setIndex(vpn), asid, vpn) >= 0
}

// FlushPage implements TLB.
func (a *plainArray) FlushPage(asid ASID, vpn VPN) bool {
	return a.flushPage(a.geom.setIndex(vpn), asid, vpn)
}

// FlushPageAllASIDs implements TLB. The invalidation is address-based: it
// removes every process's entry for the page, across SP's partition
// boundary and regardless of RF's Sec bit.
func (a *plainArray) FlushPageAllASIDs(vpn VPN) bool {
	a.stats.Flushes++
	return a.flushVPN(a.geom.setIndex(vpn), vpn)
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
