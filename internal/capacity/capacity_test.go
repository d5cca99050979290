package capacity

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"securetlb/internal/model"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMutualInformationEndpoints(t *testing.T) {
	cases := []struct {
		p1, p2, want float64
	}{
		{1, 0, 1},     // perfectly distinguishable
		{0, 1, 1},     // perfectly distinguishable, inverted
		{0, 0, 0},     // indistinguishable
		{1, 1, 0},     // indistinguishable
		{0.5, 0.5, 0}, // indistinguishable
		{0.67, 0.67, 0},
	}
	for _, c := range cases {
		if got := MutualInformation(c.p1, c.p2); !almost(got, c.want, 1e-12) {
			t.Errorf("C(%v,%v) = %v, want %v", c.p1, c.p2, got, c.want)
		}
	}
}

func TestMutualInformationKnownValue(t *testing.T) {
	// p1=0.99, p2=0.01 (the paper's 0.99-ish C* entries): close to 1 bit.
	if got := MutualInformation(0.99, 0.01); !almost(got, 0.919, 0.01) {
		t.Errorf("C(0.99,0.01) = %v", got)
	}
	// Symmetric in (p1,p2).
	if !almost(MutualInformation(0.3, 0.8), MutualInformation(0.8, 0.3), 1e-12) {
		t.Error("C should be symmetric")
	}
}

func TestMutualInformationRange(t *testing.T) {
	f := func(a, b uint16) bool {
		p1 := float64(a) / 65535
		p2 := float64(b) / 65535
		c := MutualInformation(p1, p2)
		if math.IsNaN(c) || c < 0 || c > 1 {
			t.Logf("C(%v,%v) = %v out of [0,1]", p1, p2, c)
			return false
		}
		// C = 0 iff p1 == p2 (within float noise).
		if p1 == p2 && c != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if !math.IsNaN(MutualInformation(-0.1, 0.5)) || !math.IsNaN(MutualInformation(0.5, 1.1)) {
		t.Error("out-of-range probabilities should yield NaN")
	}
}

func TestCounts(t *testing.T) {
	c := Counts{Mapped: 500, MappedMisses: 500, NotMapped: 500, NotMappedMisses: 0}
	p1, p2 := c.Probabilities()
	if p1 != 1 || p2 != 0 {
		t.Errorf("p = (%v,%v)", p1, p2)
	}
	if !almost(c.Capacity(), 1, 1e-12) {
		t.Errorf("C = %v", c.Capacity())
	}
	if (Counts{}).Capacity() != 0 {
		t.Error("empty counts should give 0")
	}
}

func TestDeterministicTheorySA(t *testing.T) {
	// Golden SA theory per Table 4.
	want := map[string][2]float64{
		"Ad -> Vu -> Va (fast)": {0, 1}, // Internal Collision: C = 1
		"Ad -> Vu -> Aa (fast)": {1, 1}, // Flush+Reload: defended
		"Vu -> Aa -> Vu (slow)": {1, 0}, // Evict+Time: C = 1
		"Ad -> Vu -> Ad (slow)": {1, 0}, // Prime+Probe: C = 1
		"Vd -> Vu -> Vd (slow)": {1, 0}, // Bernstein: C = 1
		"Vd -> Vu -> Ad (slow)": {1, 1}, // Evict+Probe: defended
		"Ad -> Vu -> Vd (slow)": {1, 1}, // Prime+Time: defended
	}
	vulns := model.Enumerate()
	for _, v := range vulns {
		exp, ok := want[v.String()]
		if !ok {
			continue
		}
		p1, p2, err := DeterministicTheory(v, model.DesignASID)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if p1 != exp[0] || p2 != exp[1] {
			t.Errorf("SA %s: (p1,p2) = (%v,%v), want (%v,%v)", v, p1, p2, exp[0], exp[1])
		}
	}
}

func TestDeterministicTheorySP(t *testing.T) {
	want := map[string][2]float64{
		"Ad -> Vu -> Ad (slow)": {0, 0}, // Prime+Probe: defended (p1=p2=0)
		"Vu -> Aa -> Vu (slow)": {0, 0}, // Evict+Time: defended
		"Vd -> Vu -> Vd (slow)": {1, 0}, // Bernstein: still C = 1
		"Ad -> Vu -> Va (fast)": {0, 1}, // Internal Collision: still C = 1
	}
	for _, v := range model.Enumerate() {
		exp, ok := want[v.String()]
		if !ok {
			continue
		}
		p1, p2, err := DeterministicTheory(v, model.DesignPartitioned)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if p1 != exp[0] || p2 != exp[1] {
			t.Errorf("SP %s: (p1,p2) = (%v,%v), want %v", v, p1, p2, exp)
		}
	}
}

func TestRFTheoryMatchesPaperNumbers(t *testing.T) {
	// §5.3.1's six collapsed patterns with nset=4, nway=8, sec_range∈{3,31},
	// prime_num=28.
	want := map[string]float64{
		"Ad -> Vu -> Va (fast)":      1 - 1.0/3,           // 0.67
		"Ainv -> Vu -> Va (fast)":    1 - 1.0/3,           // 0.67
		"Aaalias -> Vu -> Va (fast)": 1 - 1.0/31,          // 0.97
		"Vu -> Ad -> Vu (slow)":      1.0 / 3 / 24,        // ≈0.014
		"Vu -> Aa -> Vu (slow)":      math.Pow(8.0/31, 8), // ≈0
		"Ad -> Vu -> Ad (slow)":      1.0 / 3,             // 0.33
		"Aa -> Vu -> Aa (slow)":      8.0 / 31,            // 0.26
		"Va -> Vu -> Va (slow)":      3.0 / 31,            // 0.09
		"Vd -> Vu -> Vd (slow)":      1.0 / 3,             // 0.33
		"Ad -> Vu -> Aa (fast)":      1,                   // ASID-defended
		"Ad -> Vu -> Vd (slow)":      1,                   // ASID-defended
		"Vd -> Vu -> Ad (slow)":      1,                   // ASID-defended
	}
	for _, v := range model.Enumerate() {
		exp, ok := want[v.String()]
		if !ok {
			continue
		}
		p1, p2, err := RFTheory(v, DefaultRFParams)
		if err != nil {
			t.Fatalf("RF %s: %v", v, err)
		}
		if p1 != p2 {
			t.Errorf("RF %s: p1 %v != p2 %v (capacity must be 0)", v, p1, p2)
		}
		if !almost(p1, exp, 1e-9) {
			t.Errorf("RF %s: p = %v, want %v", v, p1, exp)
		}
	}
}

func TestRFTheoryZeroCapacityForAll24(t *testing.T) {
	for _, v := range model.Enumerate() {
		p1, p2, err := RFTheory(v, DefaultRFParams)
		if err != nil {
			t.Fatalf("RF %s: %v", v, err)
		}
		if c := MutualInformation(p1, p2); c != 0 {
			t.Errorf("RF %s: C = %v, want 0", v, c)
		}
	}
}

func TestSecRangeFor(t *testing.T) {
	vulns := model.Enumerate()
	// The large, contention-heavy region applies to the three a-dominated
	// collapsed patterns: V_u⇝a⇝V_u, a^alias⇝V_u⇝·, and a⇝V_u⇝a.
	big := map[string]bool{
		"Vu -> Aa -> Vu (slow)":      true,
		"Vu -> Va -> Vu (slow)":      true,
		"Aaalias -> Vu -> Va (fast)": true,
		"Vaalias -> Vu -> Va (fast)": true,
		"Aaalias -> Vu -> Aa (fast)": true,
		"Vaalias -> Vu -> Aa (fast)": true,
		"Aa -> Vu -> Aa (slow)":      true,
		"Va -> Vu -> Va (slow)":      true,
		"Aa -> Vu -> Va (slow)":      true,
		"Va -> Vu -> Aa (slow)":      true,
	}
	for _, v := range vulns {
		want := DefaultRFParams.SecRangeSmall
		if big[v.String()] {
			want = DefaultRFParams.SecRangeBig
		}
		if got := DefaultRFParams.SecRangeFor(v); got != want {
			t.Errorf("SecRangeFor(%s) = %d, want %d", v, got, want)
		}
	}
}

func TestBootstrapCI(t *testing.T) {
	// Deterministic counts: the interval collapses onto the point estimate.
	c := Counts{Mapped: 500, MappedMisses: 500, NotMapped: 500, NotMappedMisses: 0}
	lo, hi := c.BootstrapCI(200, 0.95, 1)
	if lo != 1 || hi != 1 {
		t.Errorf("deterministic CI = [%v,%v], want [1,1]", lo, hi)
	}
	// A defended RF-style row: the CI must hug zero.
	c = Counts{Mapped: 500, MappedMisses: 167, NotMapped: 500, NotMappedMisses: 158}
	lo, hi = c.BootstrapCI(400, 0.95, 2)
	if lo > hi {
		t.Fatalf("inverted interval [%v,%v]", lo, hi)
	}
	if hi > 0.05 {
		t.Errorf("defended row CI upper bound %v too large", hi)
	}
	if point := c.Capacity(); point < lo-1e-9 {
		t.Errorf("point estimate %v below interval [%v,%v]", point, lo, hi)
	}
	// More trials → tighter interval.
	small := Counts{Mapped: 50, MappedMisses: 17, NotMapped: 50, NotMappedMisses: 16}
	big := Counts{Mapped: 5000, MappedMisses: 1700, NotMapped: 5000, NotMappedMisses: 1600}
	_, hiSmall := small.BootstrapCI(300, 0.95, 3)
	_, hiBig := big.BootstrapCI(300, 0.95, 3)
	if hiBig >= hiSmall {
		t.Errorf("CI should tighten with trials: small %v vs big %v", hiSmall, hiBig)
	}
	// Degenerate inputs fall back to the point estimate.
	lo, hi = Counts{}.BootstrapCI(100, 0.95, 4)
	if lo != 0 || hi != 0 {
		t.Errorf("empty counts CI = [%v,%v]", lo, hi)
	}
}

// TestBootstrapCIDegenerateClosedForm pins the closed form for counts whose
// every binomial draw is certain (each miss probability 0 or 1) against the
// full resampling path, bit for bit, including sizes that take the parallel
// path, and checks that such calls never occupy a memo slot.
func TestBootstrapCIDegenerateClosedForm(t *testing.T) {
	before := bootstrapCacheN.Load()
	for _, n := range []int{1, 7, 500, 1000} {
		for _, shape := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
			c := Counts{Mapped: n, MappedMisses: shape[0] * n, NotMapped: n + 3, NotMappedMisses: shape[1] * (n + 3)}
			p1, p2 := c.Probabilities()
			for _, resamples := range []int{1, 50, 300} {
				for _, seed := range []uint64{1, 2, 0xdeadbeef} {
					lo, hi := c.BootstrapCI(resamples, 0.95, seed)
					wantLo, wantHi, err := c.bootstrapResample(context.Background(), resamples, 0.95, seed, p1, p2)
					if err != nil || lo != wantLo || hi != wantHi {
						t.Errorf("%+v r=%d seed=%d: closed form [%v,%v], resampled [%v,%v] (err %v)",
							c, resamples, seed, lo, hi, wantLo, wantHi, err)
					}
				}
			}
		}
	}
	if after := bootstrapCacheN.Load(); after != before {
		t.Errorf("degenerate calls changed the memo size: %d -> %d", before, after)
	}
}

func TestBootstrapCICtx(t *testing.T) {
	c := Counts{Mapped: 500, MappedMisses: 167, NotMapped: 500, NotMappedMisses: 158}
	// A live context reproduces BootstrapCI bit-for-bit, including at the
	// large-work sizes that take the parallel path.
	wantLo, wantHi := c.BootstrapCI(400, 0.95, 2)
	lo, hi, err := c.BootstrapCICtx(context.Background(), 400, 0.95, 2)
	if err != nil || lo != wantLo || hi != wantHi {
		t.Errorf("BootstrapCICtx = (%v,%v,%v), want (%v,%v,nil)", lo, hi, err, wantLo, wantHi)
	}
	// A cancelled context stops the resampling with a typed error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.BootstrapCICtx(ctx, 400, 0.95, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled: err = %v, want context.Canceled", err)
	}
}
