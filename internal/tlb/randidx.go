package tlb

import "fmt"

// RandIdx is the Randomized-Index TLB ("RI TLB"), a TLBcoat-style design:
// a set-associative array whose set mapping is keyed by the small
// PRINCE-style block cipher of prince.go instead of the low page-index
// bits. Two properties follow:
//
//   - Per-process indexing: the cipher key is tweaked by the ASID, so the
//     same page number maps to unrelated sets in different processes. An
//     attacker can no longer construct eviction sets from page-index
//     arithmetic — pages that alias in its own address space say nothing
//     about where the victim's translations live.
//   - Periodic re-keying: after RekeyFills fills the array is flushed and a
//     fresh key is drawn from the design's deterministic PRNG stream,
//     bounding how long any statistical profile of one key remains useful.
//     The re-key is modeled in cycles (RekeyCycles, charged to the access
//     that triggers it) and in fill counts — never in wall time — so a
//     campaign trial re-keys at exactly the same lookup in replayed and
//     fully-executed runs.
//
// Hits still require the ASID to match, exactly as in the SA TLB; the
// randomization changes only where translations are placed.
type RandIdx struct {
	geom    geometry
	timing  Timing
	walker  Walker
	sets    [][]entry
	backing []entry // contiguous storage behind sets, cleared whole on flush
	clock   uint64
	stats   Stats
	rng     *rng
	hook    *FaultHook

	key   uint64 // current index key (epoch key; per-ASID tweak applied per lookup)
	epoch uint64 // re-key generation, starting at 0
	fills uint64 // fills performed under the current key

	// RekeyFills is the number of fills after which the next lookup
	// re-keys (flush + fresh key). Zero disables periodic re-keying.
	RekeyFills uint64
	// RekeyCycles is the latency charged to the lookup that performs a
	// re-key: the array invalidation plus the key-register load.
	RekeyCycles uint64
}

var (
	_ TLB            = (*RandIdx)(nil)
	_ FastTranslator = (*RandIdx)(nil)
	_ CounterReader  = (*RandIdx)(nil)
)

// princeASIDTweak spreads the ASID across the key so each process indexes
// under its own permutation (odd multiplier, so distinct ASIDs produce
// distinct tweaks).
const princeASIDTweak = 0xc2b2ae3d27d4eb4f

// NewRandIdx returns an RI TLB whose key stream is seeded with seed and
// which re-keys every rekeyFills fills (0 disables re-keying). The default
// re-key cost is one cycle per invalidated entry plus one key-register load.
func NewRandIdx(entries, ways int, walker Walker, seed uint64, rekeyFills uint64) (*RandIdx, error) {
	g, err := newGeometry(entries, ways)
	if err != nil {
		return nil, err
	}
	if walker == nil {
		return nil, fmt.Errorf("tlb: walker must not be nil")
	}
	t := &RandIdx{
		geom: g, timing: DefaultTiming, walker: walker,
		rng: newRNG(seed), RekeyFills: rekeyFills, RekeyCycles: uint64(entries) + 1,
	}
	t.key = t.rng.Uint64()
	t.sets, t.backing = newSets(g)
	return t, nil
}

// SetTiming overrides the lookup latency parameters.
func (t *RandIdx) SetTiming(tm Timing) { t.timing = tm }

// Reseed restarts the key stream from seed: the current key is replaced by
// the stream's first draw and the re-key schedule (epoch, fill counter)
// resets. Campaign trials reseed so a trial's key sequence is a pure
// function of its trial seed, however trials are sharded.
func (t *RandIdx) Reseed(seed uint64) {
	t.rng.Seed(seed)
	t.key = t.rng.Uint64()
	t.epoch = 0
	t.fills = 0
}

// Name implements TLB.
func (t *RandIdx) Name() string { return "RI " + t.geom.geomName() }

// Entries implements TLB.
func (t *RandIdx) Entries() int { return t.geom.entries }

// Ways implements TLB.
func (t *RandIdx) Ways() int { return t.geom.ways }

// Stats implements TLB.
func (t *RandIdx) Stats() Stats { return t.stats }

// MissHitCounts implements CounterReader.
func (t *RandIdx) MissHitCounts() (uint64, uint64) { return t.stats.Misses, t.stats.Hits }

// ResetStats implements TLB.
func (t *RandIdx) ResetStats() { t.stats = Stats{} }

// keyFor returns the effective cipher key for one process.
func (t *RandIdx) keyFor(asid ASID) uint64 { return t.key ^ uint64(asid)*princeASIDTweak }

// index maps (asid, vpn) to a set through the keyed cipher.
func (t *RandIdx) index(asid ASID, vpn VPN) int {
	return int(t.geom.setMod(princeEncrypt(uint64(vpn), t.keyFor(asid))))
}

// rekeyDue reports whether the next lookup must re-key first.
func (t *RandIdx) rekeyDue() bool { return t.RekeyFills > 0 && t.fills >= t.RekeyFills }

// rekey flushes the array and installs the key stream's next key. The fault
// hook may substitute a stale key (a stuck key register); the flush itself
// is unconditional, as in hardware the invalidation and the key load are
// separate events.
func (t *RandIdx) rekey() {
	next := t.hook.rekey(t.key, t.rng.Uint64())
	clear(t.backing)
	t.stats.Flushes++
	t.key = next
	t.epoch++
	t.fills = 0
}

func (t *RandIdx) find(s int, asid ASID, vpn VPN) int {
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
func (t *RandIdx) Translate(asid ASID, vpn VPN) (Result, error) {
	var res Result
	err := t.translate(asid, vpn, &res)
	return res, err
}

// TranslateCycles implements FastTranslator.
func (t *RandIdx) TranslateCycles(asid ASID, vpn VPN) (uint64, error) {
	var res Result
	err := t.translate(asid, vpn, &res)
	return res.Cycles, err
}

func (t *RandIdx) translate(asid ASID, vpn VPN, res *Result) error {
	t.hook.access()
	t.stats.Lookups++
	var rekeyCost uint64
	if t.rekeyDue() {
		t.rekey()
		rekeyCost = t.RekeyCycles
	}
	s := t.index(asid, vpn)
	t.clock++
	hit, victim := findOrVictim(t.sets[s], asid, vpn)
	if hit >= 0 {
		e := &t.sets[s][hit]
		if t.hook.touchAllowed(s, hit) {
			e.Stamp = t.clock
		}
		t.stats.Hits++
		res.PPN, res.Hit, res.Cycles = e.PPN, true, t.timing.HitCycles+rekeyCost
		return nil
	}
	t.stats.Misses++
	ppn, walkCycles, err := t.walker.Walk(asid, vpn)
	res.Cycles = t.timing.HitCycles + walkCycles + rekeyCost
	if err != nil {
		return err
	}
	// The walker never touches the array, so the probe's victim way is
	// still current after the walk.
	res.PPN, res.Filled = ppn, true
	w := victim
	action := t.hook.fillAction(s, w)
	if action == FillDrop {
		// Lost array write: the control logic still counts the fill, and
		// the re-key schedule advances with the control logic's view.
		t.stats.Fills++
		t.fills++
		return nil
	}
	e := &t.sets[s][w]
	if e.Valid {
		res.Evicted, res.EvictedVPN, res.EvictedASID = true, e.VPN, e.ASID
		t.stats.Evictions++
	}
	*e = entry{Valid: true, ASID: asid, VPN: vpn, PPN: ppn, Stamp: t.clock}
	t.stats.Fills++
	t.fills++
	if action == FillDuplicate {
		if w2 := (w + 1) % len(t.sets[s]); w2 != w {
			t.sets[s][w2] = *e
		}
	}
	return nil
}

// Probe implements TLB.
func (t *RandIdx) Probe(asid ASID, vpn VPN) bool {
	return t.find(t.index(asid, vpn), asid, vpn) >= 0
}

// FlushAll implements TLB. An external flush does not advance the re-key
// schedule: the schedule bounds key exposure (fills observed under one
// key), which an array invalidation does not reduce.
func (t *RandIdx) FlushAll() {
	clear(t.backing)
	t.stats.Flushes++
}

// FlushASID implements TLB.
func (t *RandIdx) FlushASID(asid ASID) {
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
func (t *RandIdx) FlushPage(asid ASID, vpn VPN) bool {
	s := t.index(asid, vpn)
	t.stats.Flushes++
	if w := t.find(s, asid, vpn); w >= 0 {
		t.sets[s][w] = entry{}
		return true
	}
	return false
}

// FlushPageAllASIDs implements TLB. Each process indexes the page under its
// own key, so an address-based shootdown cannot compute one target set — it
// must search the whole array, exactly the cost a randomized index imposes
// on real TLB-coherence hardware.
func (t *RandIdx) FlushPageAllASIDs(vpn VPN) bool {
	t.stats.Flushes++
	any := false
	for s := range t.sets {
		for w := range t.sets[s] {
			e := &t.sets[s][w]
			if e.Valid && e.VPN == vpn {
				*e = entry{}
				any = true
			}
		}
	}
	return any
}
