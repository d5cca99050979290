package tlb

import (
	"testing"
	"testing/quick"
)

// opStream is a randomised sequence of TLB operations used by the
// property-based tests below.
type opStream struct {
	Ops []op
}

type op struct {
	Kind uint8 // 0..4: translate, flushAll, flushASID, flushPage, probe
	ASID uint8
	VPN  uint16
}

// apply runs the stream against a TLB, failing the test on walker errors.
func (s opStream) apply(t *testing.T, tl TLB) {
	t.Helper()
	for _, o := range s.Ops {
		asid, vpn := ASID(o.ASID%4), VPN(o.VPN%512)
		switch o.Kind % 5 {
		case 0:
			if _, err := tl.Translate(asid, vpn); err != nil {
				t.Fatalf("Translate: %v", err)
			}
		case 1:
			tl.FlushAll()
		case 2:
			tl.FlushASID(asid)
		case 3:
			tl.FlushPage(asid, vpn)
		case 4:
			tl.Probe(asid, vpn)
		}
	}
}

// entriesOf extracts the valid entries of each design for invariant checks.
func entriesOf(tl TLB) []entry {
	var sets [][]entry
	switch v := tl.(type) {
	case *SetAssoc:
		sets = v.sets
	case *SP:
		sets = v.sets
	case *RF:
		sets = v.sets
	}
	var out []entry
	for _, set := range sets {
		for _, e := range set {
			if e.Valid {
				out = append(out, e)
			}
		}
	}
	return out
}

// setsOf returns the raw sets for per-set invariants.
func setsOf(tl TLB) [][]entry {
	switch v := tl.(type) {
	case *SetAssoc:
		return v.sets
	case *SP:
		return v.sets
	case *RF:
		return v.sets
	}
	return nil
}

func checkInvariants(t *testing.T, tl TLB, geom geometry) bool {
	t.Helper()
	// Invariant 1: no duplicate (asid, vpn) translations.
	seen := map[[2]uint64]bool{}
	for _, e := range entriesOf(tl) {
		k := [2]uint64{uint64(e.ASID), uint64(e.VPN)}
		if seen[k] {
			t.Logf("duplicate translation (%d,%#x)", e.ASID, e.VPN)
			return false
		}
		seen[k] = true
	}
	// Invariant 2: every valid entry resides in the set its VPN indexes.
	for s, set := range setsOf(tl) {
		for _, e := range set {
			if e.Valid && geom.setIndex(e.VPN) != s {
				t.Logf("entry (%d,%#x) stored in set %d, indexes set %d",
					e.ASID, e.VPN, s, geom.setIndex(e.VPN))
				return false
			}
		}
	}
	// Invariant 3: stats are mutually consistent.
	st := tl.Stats()
	if st.Hits+st.Misses != st.Lookups {
		t.Logf("hits(%d)+misses(%d) != lookups(%d)", st.Hits, st.Misses, st.Lookups)
		return false
	}
	return true
}

func TestQuickSetAssocInvariants(t *testing.T) {
	f := func(s opStream) bool {
		sa := mustSA(t, 32, 4)
		s.apply(t, sa)
		return checkInvariants(t, sa, sa.geom)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickSPInvariants(t *testing.T) {
	f := func(s opStream) bool {
		sp := mustSP(t, 32, 4, 2)
		s.apply(t, sp)
		if !checkInvariants(t, sp, sp.geom) {
			return false
		}
		// SP-specific invariant: victim entries only in victim ways,
		// attacker entries only in attacker ways. (Entries filled before a
		// victim change could violate this; the stream keeps victim fixed.)
		for _, set := range sp.sets {
			for w, e := range set {
				if !e.Valid {
					continue
				}
				inVictimWays := w < sp.victimWays
				isVictim := e.ASID == sp.victim
				if inVictimWays != isVictim {
					t.Logf("partition violation: asid %d in way %d", e.ASID, w)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickRFInvariants(t *testing.T) {
	seed := uint64(0)
	f := func(s opStream) bool {
		seed++
		rf := mustRF(t, 32, 8, seed)
		rf.SetVictim(victimID)
		rf.SetSecureRegion(0x40, 5)
		s.apply(t, rf)
		if !checkInvariants(t, rf, rf.geom) {
			return false
		}
		// RF-specific invariant: every Sec-marked entry lies inside the
		// secure region and belongs to the victim.
		for _, e := range entriesOf(rf) {
			if e.Sec && (e.ASID != victimID || e.VPN < 0x40 || e.VPN >= 0x45) {
				t.Logf("sec bit set on (%d,%#x) outside secure region", e.ASID, e.VPN)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickRFSecureNeverDirectlyFilled(t *testing.T) {
	// Property: after any access stream, a secure page is present in the TLB
	// only if some random fill drew it — i.e. Translate of a secure page
	// reports Filled only when RandomVPN == requested VPN.
	seed := uint64(1000)
	f := func(vpnsRaw []uint16) bool {
		seed++
		rf := mustRF(t, 32, 8, seed)
		rf.SetVictim(victimID)
		rf.SetSecureRegion(0x40, 7)
		for _, raw := range vpnsRaw {
			vpn := VPN(raw % 128)
			r, err := rf.Translate(victimID, vpn)
			if err != nil {
				t.Fatal(err)
			}
			if r.Hit {
				continue
			}
			secure := vpn >= 0x40 && vpn < 0x47
			if secure {
				if !r.RandomFilled {
					t.Logf("secure miss on %#x without random fill", vpn)
					return false
				}
				if r.Filled && r.RandomVPN != vpn {
					t.Logf("secure page %#x directly filled", vpn)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickLRUNeverEvictsMostRecent(t *testing.T) {
	// Property: a fill never evicts the entry touched immediately before it
	// (true LRU with associativity >= 2).
	f := func(vpnsRaw []uint16) bool {
		sa := mustSA(t, 32, 4)
		var lastVPN VPN
		var lastValid bool
		for _, raw := range vpnsRaw {
			vpn := VPN(raw % 64)
			r, err := sa.Translate(1, vpn)
			if err != nil {
				t.Fatal(err)
			}
			if r.Evicted && lastValid && r.EvictedVPN == lastVPN && lastVPN != vpn {
				t.Logf("evicted most recently used %#x", lastVPN)
				return false
			}
			lastVPN, lastValid = vpn, true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickTranslateIdempotentSecondAccess(t *testing.T) {
	// Property: for SA and SP, translating the same (asid, vpn) twice in a
	// row always hits the second time.
	f := func(asidRaw uint8, vpnRaw uint16, ways uint8) bool {
		w := []int{1, 2, 4, 8}[ways%4]
		sa, err := NewSetAssoc(32, w, identityWalker(10))
		if err != nil {
			t.Fatal(err)
		}
		asid, vpn := ASID(asidRaw), VPN(vpnRaw)
		if _, err := sa.Translate(asid, vpn); err != nil {
			t.Fatal(err)
		}
		r, err := sa.Translate(asid, vpn)
		if err != nil {
			t.Fatal(err)
		}
		return r.Hit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
