package tlb

// RF is the Random-Fill TLB of paper §4.2 (Figures 3 and 4).
//
// Each entry carries a Sec bit marking translations inside the victim's
// secure region [sbase, sbase+ssize). Hits behave exactly like the SA TLB.
// On a miss for translation D, the set's LRU candidate R is probed without
// filling ("no fill" probe, Figure 4 steps 1–3), and:
//
//   - Sec_R = 0 and Sec_D = 0: a normal miss — D is walked and filled,
//     evicting R.
//   - Sec_R = 1 and Sec_D = 0: D may not deterministically evict the secure
//     entry chosen by the replacement policy. Instead a random non-secure
//     page D' is filled: D' keeps D's upper address bits but its TLB
//     set-index bits are randomised within the window covered by the secure
//     region (footnote 6: S_n = log2(min(ssize, nsets)) bits starting at
//     sbase's low bits). D itself is returned to the CPU through the no-fill
//     buffer.
//   - Sec_D = 1: the requested secure translation is never installed.
//     Instead a random page D' drawn uniformly from the secure region is
//     walked and filled (evicting that set's LRU candidate R'), and D is
//     returned through the no-fill buffer. An attacker therefore observes
//     TLB state changes caused by the random D', never by the secret D.
//
// The random fill is performed synchronously within the miss (paper §4.2.3
// rejects asynchronous idle-cycle filling because TLB-intensive secure code
// would starve it). LazyFill enables the rejected asynchronous variant for
// the ablation study: random fills are then dropped whenever the previous
// miss was "recent" (within LazyFillWindow lookups), modelling starvation.
//
// Random filling does not intercept invalidations: a secure entry can be
// removed by an address-based flush like any other, which is why the
// Random-Fill design does not by itself defend the targeted-invalidation
// attacks of Appendix B.
type RF struct {
	plainArray
	secureRegs
	rng *rng

	// LazyFill models the asynchronous random-fill alternative of §4.2.3
	// (ablation only; the paper's design keeps it false).
	LazyFill bool
	// LazyFillWindow is the number of lookups that must separate two misses
	// for a lazy random fill to find an idle cycle. Closer misses starve the
	// fill engine and the random fill is dropped.
	LazyFillWindow uint64
	lastMissAt     uint64
	hadMiss        bool
}

var _ SecureTLB = (*RF)(nil)

// NewRF returns an RF TLB seeded with the given PRNG seed.
func NewRF(entries, ways int, walker Walker, seed uint64) (*RF, error) {
	a, err := newArray("RF", entries, ways, walker)
	if err != nil {
		return nil, err
	}
	return &RF{plainArray: plainArray{a}, rng: newRNG(seed), LazyFillWindow: 8}, nil
}

// Reseed re-seeds the Random Fill Engine's PRNG.
func (t *RF) Reseed(seed uint64) { t.rng.Seed(seed) }

// ClearVictim removes the victim designation; with no victim no address is
// secure and the RF TLB degenerates to the SA TLB.
func (t *RF) ClearVictim() { t.hasVictim = false }

// HasVictim reports whether a victim process has been designated.
func (t *RF) HasVictim() bool { return t.hasVictim }

// randomSecureVPN draws D' uniformly from the secure region (Sec_D = 1
// case). With an empty region the draw fails with ErrEmptyDraw.
func (t *RF) randomSecureVPN() (VPN, error) {
	off, err := t.rng.Uintn(t.ssize)
	if err != nil {
		return 0, err
	}
	off = t.hook.draw(t.ssize, off)
	return t.sbase + VPN(off), nil
}

// randomAliasVPN draws D' for the Sec_R = 1, Sec_D = 0 case: the requested
// address with its set-index bits randomised within the secure region's
// set window (footnote 6). The window is empty — ErrEmptyDraw — only in a
// malformed configuration where a secure entry outlived a region reprogram
// to zero size.
func (t *RF) randomAliasVPN(vpn VPN) (VPN, error) {
	window := t.ssize
	if n := uint64(t.geom.sets); window > n {
		window = n
	}
	draw, err := t.rng.Uintn(window)
	if err != nil {
		return 0, err
	}
	draw = t.hook.draw(window, draw)
	base := t.geom.setMod(uint64(t.sbase))
	target := t.geom.setMod(base + draw)
	return vpn - VPN(t.geom.setMod(uint64(vpn))) + VPN(target), nil
}

// fill installs (asid, vpn → ppn, sec) into its set, evicting the LRU
// candidate if needed, and annotates res with the eviction.
func (t *RF) fill(asid ASID, vpn VPN, ppn PPN, sec bool, res *Result) {
	s := t.geom.setIndex(vpn)
	// If the translation is already present (D' may collide with a cached
	// entry), just refresh its LRU position.
	if w := t.match(s, asid, vpn); w >= 0 {
		t.at(s, w).Sec = sec
		t.touch(s, w, nil)
		return
	}
	t.install(s, t.fillWay(s, 0), 0, t.geom.ways, asid, vpn, ppn, sec, res)
}

// lazyStarved reports whether the ablation-mode asynchronous fill engine
// would be starved of idle cycles for this miss.
func (t *RF) lazyStarved() bool {
	if !t.LazyFill {
		return false
	}
	starved := t.hadMiss && t.stats.Lookups-t.lastMissAt < t.LazyFillWindow
	t.lastMissAt, t.hadMiss = t.stats.Lookups, true
	return starved
}

// Translate implements TLB, following the access-handling flow of Figure 3.
func (t *RF) Translate(asid ASID, vpn VPN) (Result, error) {
	var res Result
	err := t.translate(asid, vpn, &res)
	return res, err
}

// TranslateCycles implements FastTranslator.
func (t *RF) TranslateCycles(asid ASID, vpn VPN) (uint64, error) {
	var res Result
	err := t.translate(asid, vpn, &res)
	return res.Cycles, err
}

func (t *RF) translate(asid ASID, vpn VPN, res *Result) error {
	t.hook.access()
	t.stats.Lookups++
	s := t.geom.setIndex(vpn)
	t.clock++
	if w := t.match(s, asid, vpn); w >= 0 {
		res.PPN, res.Hit, res.Cycles = t.hit(s, w), true, hitCycles
		return nil
	}
	t.stats.Misses++
	// "No fill" probe (Figure 4 steps 1–3): the head of the set's recency
	// list is the entry R the requested translation would evict; read its
	// Sec bit.
	secD := t.secure(asid, vpn)
	rWay := t.fillWay(s, 0)
	r := t.at(s, rWay)
	secR := r.Valid && r.Sec

	// Walk the requested translation D; its result always goes back to the
	// processor (directly or through the no-fill buffer).
	ppn, walkCycles, err := t.walker.Walk(asid, vpn)
	res.PPN, res.Cycles = ppn, hitCycles+walkCycles
	if err != nil {
		return err
	}

	if !secD && !secR {
		// Normal TLB miss. D was absent at the probe and nothing has been
		// installed since, so the probe's victim way is still current.
		res.Filled = true
		t.install(s, rWay, 0, t.geom.ways, asid, vpn, ppn, false, res)
		t.stats.Fills++
		return nil
	}

	// A random fill is required (Figure 4 step 4). Under the ablation-only
	// lazy mode the fill may be starved and dropped; the request is still
	// served through the buffer.
	if t.lazyStarved() {
		t.stats.NoFills++
		t.stats.RandomFillSkips++
		return nil
	}

	var dPrime VPN
	var dPrimeSec bool
	var derr error
	if secD {
		dPrime, derr = t.randomSecureVPN()
		dPrimeSec = true
	} else {
		dPrime, derr = t.randomAliasVPN(vpn)
	}
	if derr != nil {
		// Misconfigured secure region: the access itself still completes
		// through the no-fill buffer, but the error is surfaced so the
		// caller's trial is flagged rather than silently mis-sampled.
		t.stats.NoFills++
		t.stats.RandomFillSkips++
		return derr
	}
	pp, wc, werr := t.walker.Walk(asid, dPrime)
	res.Cycles += wc
	if werr != nil {
		// Footnote 5 assumes the OS pre-generates page table entries for
		// every address the RFE can draw. If a mapping is nevertheless
		// missing, the random fill is skipped; the requested access still
		// completes through the buffer.
		t.stats.NoFills++
		t.stats.RandomFillSkips++
		return nil
	}
	res.RandomFilled, res.RandomVPN = true, dPrime
	t.fill(asid, dPrime, pp, dPrimeSec, res)
	t.stats.RandomFills++
	if dPrime == vpn {
		// D and D' may coincide "because of the randomization" (§4.2.1);
		// then the requested translation did end up in the array.
		res.Filled = true
		t.stats.Fills++
	} else {
		t.stats.NoFills++
	}
	return nil
}

// RNG is an exported copy of a Random Fill Engine generator, used by the
// invariant checker to predict the RFE's next draw without perturbing the
// live stream.
type RNG struct {
	inner rng
}

// Uintn returns a uniform value in [0, n), advancing only this copy.
func (g *RNG) Uintn(n uint64) (uint64, error) { return g.inner.Uintn(n) }

// RNGClone returns a copy of the RFE's generator at its current state.
func (t *RF) RNGClone() RNG { return RNG{inner: *t.rng} }

// PredictRandomFill replays the Random Fill Engine's decision for an access
// to (asid, vpn) against the TLB's *current* (pre-access) state, drawing
// from g instead of the live generator. It returns the D' a fault-free RFE
// would install and whether a random fill would be attempted at all (hits
// and plain misses attempt none). Call it immediately before Translate with
// a generator from RNGClone; comparing the prediction against the access's
// Result exposes a biased or stuck RNG.
func (t *RF) PredictRandomFill(g *RNG, asid ASID, vpn VPN) (VPN, bool, error) {
	s := t.geom.setIndex(vpn)
	if t.match(s, asid, vpn) >= 0 {
		return 0, false, nil
	}
	secD := t.secure(asid, vpn)
	r := t.at(s, t.fillWay(s, 0))
	secR := r.Valid && r.Sec
	if !secD && !secR {
		return 0, false, nil
	}
	if secD {
		off, err := g.inner.Uintn(t.ssize)
		if err != nil {
			return 0, false, err
		}
		return t.sbase + VPN(off), true, nil
	}
	window := t.ssize
	if n := uint64(t.geom.sets); window > n {
		window = n
	}
	draw, err := g.inner.Uintn(window)
	if err != nil {
		return 0, false, err
	}
	base := t.geom.setMod(uint64(t.sbase))
	target := t.geom.setMod(base + draw)
	return vpn - VPN(t.geom.setMod(uint64(vpn))) + VPN(target), true, nil
}

// CloneWith implements Cloner. The clone's Random Fill Engine continues the
// original's PRNG stream from its current state; campaigns that need
// per-trial reproducibility reseed per trial as usual.
func (t *RF) CloneWith(w Walker) TLB {
	n := *t
	n.array = t.array.clone(w)
	rngCopy := *t.rng
	n.rng = &rngCopy
	return &n
}
