package assert

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"securetlb/internal/tlb"
)

// This file checks the monitor's inductive evaluation against the
// whole-array reference: a second monitor over an identical design whose
// base is discarded before every access, so it runs the whole-array form of
// every assertion each time — what the monitor did before it kept a base.

// holeyWalker maps every page but one in eight, so campaigns of random
// accesses include erroring accesses and skipped random fills: accesses that
// evaluate no stamp bound while the array keeps whatever drifted into it.
func holeyWalker() tlb.Walker {
	return tlb.WalkerFunc(func(asid tlb.ASID, vpn tlb.VPN) (tlb.PPN, uint64, error) {
		if vpn%8 == 7 {
			return 0, 60, fmt.Errorf("page fault at vpn %#x", vpn)
		}
		return tlb.PPN(uint64(vpn)<<4 | uint64(asid)), 60, nil
	})
}

// verdict renders a Translate outcome for comparison: the Result and either
// the violation's name and detail or the design error's text.
func verdict(res tlb.Result, err error) string {
	var v *Violation
	switch {
	case err == nil:
		return fmt.Sprintf("%+v ok", res)
	case errors.As(err, &v):
		return fmt.Sprintf("%+v violation %s: %s", res, v.Assertion, v.Detail)
	}
	return fmt.Sprintf("%+v error %v", res, err)
}

// TestInductiveMatchesWholeArray drives every inspectable design and the
// fake design through random accesses, interleaved with what the inductive
// base must notice: CorruptEntry on every field at rest, flushes through
// both the monitor and the unwrapped design, security-register writes
// through both, SP repartitions, RI re-keys, FS context switches and fill
// and LRU faults. After every access the monitor must return exactly the
// reference monitor's verdict: nil, or the same assertion and detail.
func TestInductiveMatchesWholeArray(t *testing.T) {
	w := holeyWalker()
	designs := []struct {
		name string
		mk   func() tlb.TLB
	}{
		{"SA", func() tlb.TLB { d, _ := tlb.NewSetAssoc(32, 8, w); return d }},
		{"FA", func() tlb.TLB { d, _ := tlb.NewFullyAssoc(16, w); return d }},
		{"SP", func() tlb.TLB {
			d, _ := tlb.NewSP(32, 8, 4, w)
			d.SetVictim(1)
			return d
		}},
		{"RF", func() tlb.TLB {
			d, _ := tlb.NewRF(32, 8, w, 0x5eed)
			d.SetVictim(1)
			d.SetSecureRegion(0x20, 6)
			return d
		}},
		{"RI", func() tlb.TLB { d, _ := tlb.NewRandIdx(32, 8, w, 0x5eed, 24); return d }},
		{"FS", func() tlb.TLB {
			d, _ := tlb.NewFlushOnSwitch(32, 8, w)
			d.SetVictim(1)
			d.SetSecureRegion(0x20, 6)
			return d
		}},
		{"FAKE", func() tlb.TLB { return newFake(4, 4) }},
	}
	for _, d := range designs {
		t.Run(d.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			var inductive, drifted, violations, accesses int
			for seq := 0; seq < 30; seq++ {
				pair := [2]*Monitor{}
				var fill tlb.FillAction
				stuck := false
				for k := range pair {
					m, err := Wrap(d.mk(), w, Options{CrossCheck: true})
					if err != nil {
						t.Fatal(err)
					}
					pair[k] = m
				}
				asid := tlb.ASID(0)
				for step := 0; step < 400; step++ {
					did := mutate(t, rng, pair, &fill, &stuck)
					if rng.Intn(8) == 0 {
						asid = tlb.ASID(rng.Intn(3)) // a context switch
					}
					vpn := tlb.VPN(rng.Intn(48))
					if asid == 1 && rng.Intn(2) == 0 {
						vpn = tlb.VPN(0x20 + rng.Intn(6)) // the victim's secure region
					}
					pair[1].baseOK = false // the reference checks the whole array
					res, err := pair[0].Translate(asid, vpn)
					got := verdict(res, err)
					want := verdict(pair[1].Translate(asid, vpn))
					if got != want {
						t.Fatalf("sequence %d step %d (after %s), access (%d, %#x):\ninductive: %s\nwhole:     %s", seq, step, did, asid, vpn, got, want)
					}
					accesses++
					if !pair[0].full {
						inductive++
						if pair[0].ndrift > 0 {
							drifted++
						}
					}
					if errors.Is(err, ErrViolation) {
						violations++
					}
				}
			}
			t.Logf("%d accesses: %d inductive (%d with drift), %d violations", accesses, inductive, drifted, violations)
			if inductive < accesses/2 || drifted == 0 || violations == 0 {
				t.Fatalf("weak coverage: %d accesses, %d inductive, %d with drift, %d violations", accesses, inductive, drifted, violations)
			}
		})
	}
}

// mutate applies one random between-access operation identically to both
// monitors' designs and reports what it did.
func mutate(t *testing.T, rng *rand.Rand, pair [2]*Monitor, fill *tlb.FillAction, stuck *bool) string {
	t.Helper()
	inner := [2]tlb.TLB{Unwrap(pair[0]), Unwrap(pair[1])}
	k := rng.Intn(100)
	// Draw every parameter before applying, so both designs get the same.
	asid, vpn := tlb.ASID(rng.Intn(3)), tlb.VPN(rng.Intn(48))
	v := rng.Intn(64)
	ways := inner[0].Ways()
	set, way := rng.Intn(inner[0].Entries()/ways), rng.Intn(ways)
	field := rng.Intn(6)
	for i := range inner {
		switch {
		case k < 3:
			// Corrupt at rest: the drift the next access must see.
			maxStamp := uint64(0)
			for _, e := range inner[i].(tlb.Inspectable).SnapshotAppend(nil) {
				if e.Valid && e.Stamp > maxStamp {
					maxStamp = e.Stamp
				}
			}
			inner[i].(tlb.Inspectable).CorruptEntry(set, way, func(e *tlb.EntrySnapshot) {
				switch field {
				case 0:
					e.VPN = tlb.VPN(v)
				case 1:
					e.ASID = tlb.ASID(v % 3)
				case 2:
					e.Stamp = maxStamp + uint64(v%4) // ties and future stamps
				case 3:
					e.Stamp = uint64(v)
				case 4:
					e.Valid = false
				case 5:
					e.Sec = !e.Sec
				}
			})
		case k == 3:
			inner[i].FlushAll()
		case k == 4:
			inner[i].FlushASID(asid)
		case k == 5:
			inner[i].FlushPage(asid, vpn)
		case k == 6:
			inner[i].FlushPageAllASIDs(vpn)
		case k == 7:
			pair[i].FlushPage(asid, vpn)
		case k == 8:
			pair[i].FlushASID(asid)
		case k == 9:
			if s, ok := inner[i].(tlb.SecureTLB); ok {
				s.SetVictim(asid)
			}
		case k == 10:
			if s, ok := inner[i].(tlb.SecureTLB); ok {
				s.SetSecureRegion(tlb.VPN(0x1c+v%8), uint64(v%7))
			}
		case k == 11:
			pair[i].SetVictim(asid)
		case k == 12:
			switch d := inner[i].(type) {
			case *tlb.SP:
				if err := d.SetVictimWays(1 + v%(ways-1)); err != nil {
					t.Fatal(err)
				}
			case *tlb.RF:
				d.ClearVictim()
			case *tlb.RandIdx:
				d.Reseed(uint64(v)) // a re-key behind the monitor's back
			case *tlb.FlushOnSwitch:
				d.ObserveASID(asid)
			}
		case k == 13:
			pair[i].ObserveASID(asid)
		case k == 14:
			if insp, ok := inner[i].(tlb.Inspectable); ok {
				*fill = tlb.FillAction(v % 3)
				*stuck = v%5 == 0
				insp.SetFaultHook(&tlb.FaultHook{
					OnFill:     func(int, int) tlb.FillAction { return *fill },
					OnLRUTouch: func(int, int) bool { return !*stuck },
				})
			}
		case k < 20:
			inner[i].(tlb.Inspectable).SetFaultHook(nil)
		case k < 22:
			pair[i].FlushAll()
		}
	}
	return fmt.Sprintf("op %d", k)
}
