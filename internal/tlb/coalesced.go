package tlb

import (
	"fmt"
	"math/bits"
)

// Coalesced is a COLT-style coalesced TLB [Pham et al., MICRO 2012], the
// extension the paper's §6.4 suggests for recovering the effective capacity
// the SP TLB loses to partitioning ("ideas of coalescing in TLBs could be
// explored to improve the effective TLB size for victim and attacker
// partitions").
//
// Each entry covers an aligned block of up to Span contiguous virtual pages
// whose frames are contiguous in physical memory; a per-page bitmap records
// which translations inside the block have actually been verified by a
// walk. A miss whose translation is frame-contiguous with an already
// resident block entry coalesces into it — no eviction — so workloads with
// spatial locality reach Span× further with the same entry count.
//
// The design optionally keeps the SP TLB's static way partitioning
// (victimWays > 0): hits search all ways, fills stay inside the requesting
// process's partition, so the isolation guarantee is preserved while
// coalescing claws back reach.
type Coalesced struct {
	geom       geometry
	span       int
	victimWays int // 0 = unpartitioned
	walker     Walker
	sets       [][]centry
	clock      uint64
	stats      Stats
	victim     ASID
	hasVictim  bool
}

// centry is one coalesced TLB entry.
type centry struct {
	valid    bool
	asid     ASID
	blockVPN VPN    // aligned to span
	basePPN  PPN    // frame of blockVPN when the covered pages are contiguous
	bitmap   uint64 // bit i set: translation for blockVPN+i is resident
	stamp    uint64
}

var _ TLB = (*Coalesced)(nil)

// NewCoalesced returns an unpartitioned coalesced TLB. span must be a power
// of two between 2 and 64.
func NewCoalesced(entries, ways, span int, walker Walker) (*Coalesced, error) {
	return newCoalesced(entries, ways, span, 0, walker)
}

// NewCoalescedSP returns a coalesced TLB with SP-style way partitioning:
// the §6.4 design point. victimWays must satisfy 0 < victimWays < ways.
func NewCoalescedSP(entries, ways, span, victimWays int, walker Walker) (*Coalesced, error) {
	if victimWays <= 0 || victimWays >= ways {
		return nil, fmt.Errorf("tlb: coalesced SP victimWays must be in (0,%d), got %d", ways, victimWays)
	}
	return newCoalesced(entries, ways, span, victimWays, walker)
}

func newCoalesced(entries, ways, span, victimWays int, walker Walker) (*Coalesced, error) {
	g, err := newGeometry(entries, ways)
	if err != nil {
		return nil, err
	}
	if walker == nil {
		return nil, fmt.Errorf("tlb: walker must not be nil")
	}
	if span < 2 || span > 64 || span&(span-1) != 0 {
		return nil, fmt.Errorf("tlb: coalescing span must be a power of two in [2,64], got %d", span)
	}
	t := &Coalesced{geom: g, span: span, victimWays: victimWays, walker: walker}
	t.sets = make([][]centry, g.sets)
	backing := make([]centry, g.entries)
	for i := range t.sets {
		t.sets[i], backing = backing[:g.ways], backing[g.ways:]
	}
	return t, nil
}

// Span returns the maximum pages one entry can cover.
func (t *Coalesced) Span() int { return t.span }

// Name implements TLB.
func (t *Coalesced) Name() string {
	if t.victimWays > 0 {
		return fmt.Sprintf("CoSP x%d %s", t.span, t.geom.geomName())
	}
	return fmt.Sprintf("Co x%d %s", t.span, t.geom.geomName())
}

// Entries implements TLB.
func (t *Coalesced) Entries() int { return t.geom.entries }

// Ways implements TLB.
func (t *Coalesced) Ways() int { return t.geom.ways }

// Stats implements TLB.
func (t *Coalesced) Stats() Stats { return t.stats }

// ResetStats implements TLB.
func (t *Coalesced) ResetStats() { t.stats = Stats{} }

// SetVictim designates the protected process (partitioned variant only).
func (t *Coalesced) SetVictim(asid ASID) { t.victim, t.hasVictim = asid, true }

// block returns the aligned block VPN and the page's offset inside it.
func (t *Coalesced) block(vpn VPN) (VPN, uint) {
	b := vpn &^ VPN(t.span-1)
	return b, uint(vpn - b)
}

// setIndex indexes by block number so every page of a block lands in one
// set (COLT's block-aligned indexing).
func (t *Coalesced) setIndex(block VPN) int {
	return int((uint64(block) / uint64(t.span)) % uint64(t.geom.sets))
}

// find returns the way holding (asid, block), or -1.
func (t *Coalesced) find(s int, asid ASID, block VPN) int {
	for w := range t.sets[s] {
		e := &t.sets[s][w]
		if e.valid && e.blockVPN == block && e.asid == asid {
			return w
		}
	}
	return -1
}

// partition returns the fill way range for asid.
func (t *Coalesced) partition(asid ASID) (lo, hi int) {
	if t.victimWays == 0 {
		return 0, t.geom.ways
	}
	if t.hasVictim && asid == t.victim {
		return 0, t.victimWays
	}
	return t.victimWays, t.geom.ways
}

// lruCWay picks the fill way among [lo,hi): an invalid way first, else LRU.
func lruCWay(set []centry, lo, hi int) int {
	victim, oldest := lo, ^uint64(0)
	for w := lo; w < hi; w++ {
		if !set[w].valid {
			return w
		}
		if set[w].stamp < oldest {
			victim, oldest = w, set[w].stamp
		}
	}
	return victim
}

// Translate implements TLB.
func (t *Coalesced) Translate(asid ASID, vpn VPN) (Result, error) {
	t.stats.Lookups++
	t.clock++
	block, off := t.block(vpn)
	s := t.setIndex(block)
	if w := t.find(s, asid, block); w >= 0 {
		e := &t.sets[s][w]
		if e.bitmap&(1<<off) != 0 {
			e.stamp = t.clock
			t.stats.Hits++
			return Result{PPN: e.basePPN + PPN(off), Hit: true, Cycles: hitCycles}, nil
		}
	}
	t.stats.Misses++
	ppn, walkCycles, err := t.walker.Walk(asid, vpn)
	if err != nil {
		return Result{Cycles: hitCycles + walkCycles}, err
	}
	res := Result{PPN: ppn, Cycles: hitCycles + walkCycles, Filled: true}
	// Coalesce into a resident block entry when the new translation is
	// frame-contiguous with it.
	if w := t.find(s, asid, block); w >= 0 {
		e := &t.sets[s][w]
		if e.basePPN+PPN(off) == ppn {
			e.bitmap |= 1 << off
			e.stamp = t.clock
			t.stats.Fills++
			t.stats.CoalescedFills++
			return res, nil
		}
		// Frames diverge: the block cannot be represented by one base;
		// restart the entry around the new translation.
		e.basePPN = ppn - PPN(off)
		e.bitmap = 1 << off
		e.stamp = t.clock
		t.stats.Fills++
		return res, nil
	}
	lo, hi := t.partition(asid)
	w := lo + lruCWay(t.sets[s][lo:hi], 0, hi-lo)
	e := &t.sets[s][w]
	if e.valid {
		res.Evicted, res.EvictedVPN, res.EvictedASID = true, e.blockVPN, e.asid
		t.stats.Evictions++
	}
	*e = centry{valid: true, asid: asid, blockVPN: block, basePPN: ppn - PPN(off), bitmap: 1 << off, stamp: t.clock}
	t.stats.Fills++
	return res, nil
}

// Probe implements TLB.
func (t *Coalesced) Probe(asid ASID, vpn VPN) bool {
	block, off := t.block(vpn)
	s := t.setIndex(block)
	w := t.find(s, asid, block)
	return w >= 0 && t.sets[s][w].bitmap&(1<<off) != 0
}

// CoveredPages returns how many page translations are currently resident
// (the effective reach), which can exceed the entry count thanks to
// coalescing.
func (t *Coalesced) CoveredPages() int {
	n := 0
	for s := range t.sets {
		for w := range t.sets[s] {
			if t.sets[s][w].valid {
				n += bits.OnesCount64(t.sets[s][w].bitmap)
			}
		}
	}
	return n
}

// FlushAll implements TLB.
func (t *Coalesced) FlushAll() {
	for s := range t.sets {
		for w := range t.sets[s] {
			t.sets[s][w] = centry{}
		}
	}
	t.stats.Flushes++
}

// FlushASID implements TLB.
func (t *Coalesced) FlushASID(asid ASID) {
	for s := range t.sets {
		for w := range t.sets[s] {
			if t.sets[s][w].valid && t.sets[s][w].asid == asid {
				t.sets[s][w] = centry{}
			}
		}
	}
	t.stats.Flushes++
}

// FlushPage implements TLB: only the one page's bit is cleared; the entry
// survives while other pages of the block remain covered.
func (t *Coalesced) FlushPage(asid ASID, vpn VPN) bool {
	t.stats.Flushes++
	block, off := t.block(vpn)
	s := t.setIndex(block)
	w := t.find(s, asid, block)
	if w < 0 || t.sets[s][w].bitmap&(1<<off) == 0 {
		return false
	}
	t.sets[s][w].bitmap &^= 1 << off
	if t.sets[s][w].bitmap == 0 {
		t.sets[s][w] = centry{}
	}
	return true
}

// FlushPageAllASIDs implements TLB.
func (t *Coalesced) FlushPageAllASIDs(vpn VPN) bool {
	t.stats.Flushes++
	block, off := t.block(vpn)
	s := t.setIndex(block)
	any := false
	for w := range t.sets[s] {
		e := &t.sets[s][w]
		if e.valid && e.blockVPN == block && e.bitmap&(1<<off) != 0 {
			e.bitmap &^= 1 << off
			if e.bitmap == 0 {
				*e = centry{}
			}
			any = true
		}
	}
	return any
}

// CloneWith implements Cloner.
func (t *Coalesced) CloneWith(w Walker) TLB {
	n := *t
	n.walker = w
	n.sets = make([][]centry, len(t.sets))
	backing := make([]centry, t.geom.entries)
	for i := range t.sets {
		n.sets[i], backing = backing[:t.geom.ways], backing[t.geom.ways:]
		copy(n.sets[i], t.sets[i])
	}
	return &n
}
