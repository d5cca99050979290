package tlb

// This file is the design-capability surface consumed by the declarative
// security-assertion layer (internal/assert). Each method exposes one piece
// of a design's policy — the set mapping, the fill partition, the random-fill
// prediction — so assertions written once against these capabilities apply to
// any design that declares them, instead of the checker re-deriving (and
// possibly contradicting) the policy from the outside.

// SetIndex exposes the VPN-to-set mapping of the plainly indexed designs
// (SA, SP, RF and FS), including the power-of-two mask fast path of
// geometry.setIndex. External observers (the assertion monitor) must use
// this rather than computing their own modulo so checker and design can
// never disagree on set placement.
func (a *plainArray) SetIndex(vpn VPN) int { return a.geom.setIndex(vpn) }

// FillRange exposes the SP TLB's partition policy: the way range [lo, hi)
// that fills (and therefore evictions) from asid must stay inside. This is
// the design's own partition function, so the assertion layer checks the
// policy the hardware actually enforces — with no victim designated, every
// process fills the attacker partition, exactly as Translate does.
func (t *SP) FillRange(asid ASID) (lo, hi int) { return t.partition(asid) }

// PredictNextRandomFill replays the Random Fill Engine's decision for an
// access to (asid, vpn) against the TLB's current state on a clone of the
// generator, leaving the live RNG stream untouched. It returns the D' a
// fault-free RFE would install next and whether a random fill would be
// attempted at all. Call it immediately before Translate; comparing the
// prediction against the access's Result exposes a biased or stuck RNG.
func (t *RF) PredictNextRandomFill(asid ASID, vpn VPN) (VPN, bool, error) {
	g := t.RNGClone()
	return t.PredictRandomFill(&g, asid, vpn)
}

// RandomFillMayStarve reports whether the ablation-only lazy fill engine is
// enabled, in which case a prescribed random fill may legitimately be
// starved and skipped. The assertion layer's suppressed-fill check stands
// down while this is true.
func (t *RF) RandomFillMayStarve() bool { return t.LazyFill }

// KeyedSetIndex exposes the RI TLB's cipher-keyed (ASID, VPN)-to-set
// mapping. The RI TLB deliberately does not bind the plain SetIndex
// capability: its placement is not a function of the VPN alone, and an
// assertion that assumed so would contradict the design it checks. The
// key-aware checker must call this instead.
func (t *RandIdx) KeyedSetIndex(asid ASID, vpn VPN) int { return t.index(asid, vpn) }

// IndexKey exposes the current epoch key so the assertion layer can verify
// a re-key actually changed (or kept) the mapping.
func (t *RandIdx) IndexKey() uint64 { return t.key }

// RekeyEpoch exposes the re-key generation counter; it advances exactly
// when a re-key happens.
func (t *RandIdx) RekeyEpoch() uint64 { return t.epoch }

// PendingRekey reports whether the next lookup will re-key before its
// probe. It is side-effect-free; the assertion layer calls it immediately
// before Translate to predict the epoch transition.
func (t *RandIdx) PendingRekey() bool { return t.rekeyDue() }

// PredictNextKey replays the key stream's next draw on a clone of the
// generator, leaving the live stream untouched: the key a fault-free
// re-key would install. Comparing it against IndexKey after a re-key
// exposes a stuck key register.
func (t *RandIdx) PredictNextKey() uint64 {
	g := *t.rng
	return g.Uint64()
}

// PendingAutoFlush reports whether the next lookup for (asid, vpn) will
// begin with a design-initiated full flush — for the RI TLB, a due re-key.
func (t *RandIdx) PendingAutoFlush(asid ASID, vpn VPN) bool { return t.rekeyDue() }

// PendingAutoFlush reports whether the next lookup for (asid, vpn) will
// begin with a design-initiated full flush: a context switch the CSR path
// has not yet delivered, or a secure-region exit by the current context.
func (t *FlushOnSwitch) PendingAutoFlush(asid ASID, vpn VPN) bool {
	if t.hasCur && asid != t.cur {
		return true
	}
	return t.lastSecure && !t.secure(asid, vpn)
}

// PendingSwitchFlush reports whether an ObserveASID(next) call will flush
// the array. The assertion layer uses it to check flush completeness at
// the switch itself, where the SIMF semantics say the erasure must happen.
func (t *FlushOnSwitch) PendingSwitchFlush(next ASID) bool {
	return t.hasCur && next != t.cur
}
