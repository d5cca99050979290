package tlb

import (
	"strings"
	"testing"
)

// methodSetOf lists, in a fixed order, which of the package's interfaces and
// capability methods t satisfies. The assertion layer, the CPU's CSR path
// and the trace VM all bind behaviour by type assertion against these, so a
// method promoted by accident (a plain SetIndex on the keyed RI TLB, a
// HasVictim on the FS TLB) silently changes what runs.
func methodSetOf(t TLB) string {
	var has []string
	add := func(name string, ok bool) {
		if ok {
			has = append(has, name)
		}
	}
	var x any = t
	_, ok := x.(TLB)
	add("TLB", ok)
	_, ok = x.(SecureTLB)
	add("SecureTLB", ok)
	_, ok = x.(Inspectable)
	add("Inspectable", ok)
	_, ok = x.(FastTranslator)
	add("FastTranslator", ok)
	_, ok = x.(CounterReader)
	add("CounterReader", ok)
	_, ok = x.(ASIDObserver)
	add("ASIDObserver", ok)
	_, ok = x.(Cloner)
	add("Cloner", ok)
	_, ok = x.(interface{ SetIndex(VPN) int })
	add("SetIndex", ok)
	_, ok = x.(interface{ KeyedSetIndex(ASID, VPN) int })
	add("KeyedSetIndex", ok)
	_, ok = x.(interface{ FillRange(ASID) (int, int) })
	add("FillRange", ok)
	_, ok = x.(interface{ HasVictim() bool })
	add("HasVictim", ok)
	_, ok = x.(interface{ ClearVictim() })
	add("ClearVictim", ok)
	_, ok = x.(interface{ Reseed(uint64) })
	add("Reseed", ok)
	_, ok = x.(interface{ PendingAutoFlush(ASID, VPN) bool })
	add("PendingAutoFlush", ok)
	_, ok = x.(interface{ PendingSwitchFlush(ASID) bool })
	add("PendingSwitchFlush", ok)
	_, ok = x.(interface{ RandomFillMayStarve() bool })
	add("RandomFillMayStarve", ok)
	return strings.Join(has, " ")
}

// TestDesignMethodSets pins each design's interfaces and capability methods.
func TestDesignMethodSets(t *testing.T) {
	w := identityWalker(60)
	must := func(tl TLB, err error) TLB {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return tl
	}
	const plain = "TLB Inspectable FastTranslator CounterReader Cloner SetIndex"
	cases := []struct {
		name string
		tl   TLB
		want string
	}{
		{"SA", must(NewSetAssoc(32, 4, w)), plain},
		{"FA", must(NewFullyAssoc(32, w)), plain},
		{"1E", must(NewSingleEntry(w)), plain},
		{"SP", must(NewSP(32, 4, 2, w)),
			"TLB SecureTLB Inspectable FastTranslator CounterReader Cloner SetIndex FillRange HasVictim ClearVictim"},
		{"RF", must(NewRF(32, 4, w, 1)),
			"TLB SecureTLB Inspectable FastTranslator CounterReader Cloner SetIndex HasVictim ClearVictim Reseed RandomFillMayStarve"},
		{"RI", must(NewRandIdx(32, 4, w, 1, 16)),
			"TLB Inspectable FastTranslator CounterReader Cloner KeyedSetIndex Reseed PendingAutoFlush"},
		{"FS", must(NewFlushOnSwitch(32, 4, w)),
			"TLB SecureTLB Inspectable FastTranslator CounterReader ASIDObserver Cloner SetIndex PendingAutoFlush PendingSwitchFlush"},
		{"Coalesced", must(NewCoalesced(32, 4, 4, w)), "TLB Cloner"},
	}
	for _, c := range cases {
		if got := methodSetOf(c.tl); got != c.want {
			t.Errorf("%s satisfies\n  %s\nwant\n  %s", c.name, got, c.want)
		}
	}
}
