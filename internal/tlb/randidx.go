package tlb

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
//     The re-key is modeled in cycles (one per invalidated entry plus one
//     key-register load, charged to the access that triggers it) and in
//     fill counts — never in wall time — so a campaign trial re-keys at
//     exactly the same lookup in replayed and fully-executed runs. An
//     external flush does not advance the re-key schedule: the schedule
//     bounds key exposure (fills observed under one key), which an array
//     invalidation does not reduce.
//
// Hits still require the ASID to match, exactly as in the SA TLB; the
// randomization changes only where translations are placed.
type RandIdx struct {
	array
	rng *rng

	key   uint64 // current index key (epoch key; per-ASID tweak applied per lookup)
	epoch uint64 // re-key generation, starting at 0
	fills uint64 // fills performed under the current key

	// RekeyFills is the number of fills after which the next lookup
	// re-keys (flush + fresh key). Zero disables periodic re-keying.
	RekeyFills uint64
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
// which re-keys every rekeyFills fills (0 disables re-keying).
func NewRandIdx(entries, ways int, walker Walker, seed uint64, rekeyFills uint64) (*RandIdx, error) {
	a, err := newArray("RI", entries, ways, walker)
	if err != nil {
		return nil, err
	}
	t := &RandIdx{array: a, rng: newRNG(seed), RekeyFills: rekeyFills}
	t.key = t.rng.Uint64()
	return t, nil
}

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

// keyFor returns the effective cipher key for one process.
func (t *RandIdx) keyFor(asid ASID) uint64 { return t.key ^ uint64(asid)*princeASIDTweak }

// index maps (asid, vpn) to a set through the keyed cipher.
func (t *RandIdx) index(asid ASID, vpn VPN) int {
	return int(t.geom.setMod(princeEncrypt(uint64(vpn), t.keyFor(asid))))
}

// rekeyDue reports whether the next lookup must re-key first.
func (t *RandIdx) rekeyDue() bool { return t.RekeyFills > 0 && t.fills >= t.RekeyFills }

// rekeyCycles is the latency charged to the lookup that performs a
// re-key: one cycle per invalidated entry plus the key-register load.
func (t *RandIdx) rekeyCycles() uint64 { return uint64(t.geom.entries) + 1 }

// rekey flushes the array and installs the key stream's next key. The fault
// hook may substitute a stale key (a stuck key register); the flush itself
// is unconditional, as in hardware the invalidation and the key load are
// separate events.
func (t *RandIdx) rekey() {
	next := t.hook.rekey(t.key, t.rng.Uint64())
	t.FlushAll()
	t.key = next
	t.epoch++
	t.fills = 0
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
		rekeyCost = t.rekeyCycles()
	}
	s := t.index(asid, vpn)
	t.clock++
	hit, victim := findOrVictim(t.sets[s], asid, vpn)
	if hit >= 0 {
		res.PPN, res.Hit, res.Cycles = t.hit(&t.sets[s][hit], s, hit), true, hitCycles+rekeyCost
		return nil
	}
	err := t.demandFill(s, victim, 0, t.geom.ways, asid, vpn, res)
	res.Cycles += rekeyCost
	if res.Filled {
		// The re-key schedule advances with the control logic's view, so a
		// fill lost to a FillDrop fault still counts.
		t.fills++
	}
	return err
}

// Probe implements TLB.
func (t *RandIdx) Probe(asid ASID, vpn VPN) bool {
	return t.find(t.index(asid, vpn), asid, vpn) >= 0
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
	for i := range t.backing {
		if e := &t.backing[i]; e.Valid && e.VPN == vpn {
			*e = entry{}
			any = true
		}
	}
	return any
}

// CloneWith implements Cloner. The clone's key stream continues the
// original's PRNG state; campaigns that need per-trial reproducibility
// reseed per trial as usual.
func (t *RandIdx) CloneWith(w Walker) TLB {
	n := *t
	n.array = t.array.clone(w)
	rngCopy := *t.rng
	n.rng = &rngCopy
	return &n
}
