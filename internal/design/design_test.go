package design_test

import (
	"fmt"
	"slices"
	"testing"

	"securetlb/internal/area"
	"securetlb/internal/capacity"
	"securetlb/internal/design"
	"securetlb/internal/faultinject"
	"securetlb/internal/model"
	"securetlb/internal/perf"
	"securetlb/internal/secbench"
	"securetlb/internal/tlb"
)

// TestParse covers the design selector of both arenas, including the usage
// text that -design's help and the job-validation errors print.
func TestParse(t *testing.T) {
	const (
		secUsage  = `sa, sp, rf, fa, ri, fs, a comma-separated combination, "all" (the paper's sa,sp,rf trio) or "full" (every design)`
		perfUsage = `sa, sp, rf, ri, fs, a comma-separated combination, "all" (the paper's sa,sp,rf trio) or "full" (every design)`
	)
	arenas := map[string]struct {
		a     design.Arena
		usage string
	}{"security": {design.Security, secUsage}, "perf": {design.Perf, perfUsage}}
	for name, ar := range arenas {
		if got := ar.a.Usage(); got != ar.usage {
			t.Errorf("%s usage = %q, want %q", name, got, ar.usage)
		}
	}
	const (
		sa, sp, rf, fa, ri, fs = design.SA, design.SP, design.RF, design.FA, design.RI, design.FS
	)
	for _, tc := range []struct {
		arena string
		in    string
		want  []design.ID
		bad   string // the rejected code; want is nil
	}{
		{arena: "security", in: "sa", want: []design.ID{sa}},
		{arena: "security", in: "sp", want: []design.ID{sp}},
		{arena: "security", in: "rf", want: []design.ID{rf}},
		{arena: "security", in: "fa", want: []design.ID{fa}},
		{arena: "security", in: "ri", want: []design.ID{ri}},
		{arena: "security", in: "fs", want: []design.ID{fs}},
		{arena: "security", in: "all", want: []design.ID{sa, sp, rf}},
		{arena: "security", in: "full", want: []design.ID{sa, sp, rf, fa, ri, fs}},
		{arena: "security", in: "sa,sa", want: []design.ID{sa}},
		{arena: "security", in: "sa, ri", want: []design.ID{sa, ri}},
		{arena: "security", in: "fs,sa,fs", want: []design.ID{fs, sa}},
		{arena: "security", in: "", bad: ""},
		{arena: "security", in: "xx", bad: "xx"},
		{arena: "security", in: "sa,xx", bad: "xx"},
		{arena: "perf", in: "sa", want: []design.ID{sa}},
		{arena: "perf", in: "sp", want: []design.ID{sp}},
		{arena: "perf", in: "rf", want: []design.ID{rf}},
		{arena: "perf", in: "ri", want: []design.ID{ri}},
		{arena: "perf", in: "fs", want: []design.ID{fs}},
		{arena: "perf", in: "all", want: []design.ID{sa, sp, rf}},
		{arena: "perf", in: "full", want: []design.ID{sa, sp, rf, ri, fs}},
		{arena: "perf", in: "sa,sa", want: []design.ID{sa}},
		{arena: "perf", in: "sa, ri", want: []design.ID{sa, ri}},
		{arena: "perf", in: "fa", bad: "fa"},
		{arena: "perf", in: "sa,fa", bad: "fa"},
		{arena: "perf", in: "", bad: ""},
		{arena: "perf", in: "xx", bad: "xx"},
	} {
		ar := arenas[tc.arena]
		got, err := ar.a.Parse(tc.in)
		if tc.want == nil {
			want := fmt.Sprintf("unknown design %q (want %s)", tc.bad, ar.usage)
			if err == nil || err.Error() != want {
				t.Errorf("%s Parse(%q) = %v, %v; want error %q", tc.arena, tc.in, got, err, want)
			}
			continue
		}
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("%s Parse(%q) = %v, %v; want %v", tc.arena, tc.in, got, err, tc.want)
		}
	}
}

// TestRegistryComplete checks every entry: unique code and name, a design
// that builds at the secbench default geometry and at every Figure 7
// geometry it runs, a theory inside [0,1] for all 24 vulnerabilities and an
// area-model row. It also checks that each design-specific machine fault
// site has exactly one owner, the one design the injector arms it on.
func TestRegistryComplete(t *testing.T) {
	w := tlb.WalkerFunc(func(_ tlb.ASID, vpn tlb.VPN) (tlb.PPN, uint64, error) {
		return tlb.PPN(vpn), 60, nil
	})
	codes, names := map[string]bool{}, map[string]bool{}
	for _, d := range design.Security.Designs() {
		e := d.Entry()
		if e.Code == "" || codes[e.Code] || e.Name == "" || names[e.Name] {
			t.Errorf("%v: code %q / name %q empty or not unique", d, e.Code, e.Name)
		}
		codes[e.Code], names[e.Name] = true, true
		if got, ok := design.ByCode(e.Code); !ok || got != d {
			t.Errorf("ByCode(%q) = %v, %v; want %v", e.Code, got, ok, d)
		}
		if _, err := secbench.DefaultConfig(d).NewTLB(w, 1); err != nil {
			t.Errorf("%v at the secbench default geometry: %v", d, err)
		}
		if e.Figure != "" {
			for _, g := range perf.Geometries() {
				if g.Label == "1E" && d != design.SA {
					continue // the one-entry configuration is SA's alone
				}
				for _, secure := range []bool{false, true} {
					if _, err := perf.BuildTLB(d, g, secure, 1); err != nil {
						t.Errorf("%v at %s (secure=%v): %v", d, g.Label, secure, err)
					}
				}
			}
		}
		for _, v := range model.Enumerate() {
			p1, p2 := e.Theory(v)
			if !(p1 >= 0 && p1 <= 1 && p2 >= 0 && p2 <= 1) {
				t.Errorf("%v theory for %s = (%v, %v), outside [0,1]", d, v, p1, p2)
			}
		}
		if est := area.Model(d, area.Geometry{Label: "4W 32", Entries: 32, Ways: 4}); est.Design != d || est.LUTs <= 0 || est.Registers <= 0 {
			t.Errorf("%v has no area row: %+v", d, est)
		}
	}
	if _, ok := design.ByCode("xx"); ok {
		t.Error(`ByCode("xx") found a design`)
	}
	if s := design.ID(99).String(); s != "?" {
		t.Errorf("unregistered ID renders %q, want ?", s)
	}
	if _, err := design.ID(99).New(32, 8, 0, 1, 0, w); err == nil {
		t.Error("an unregistered ID built a TLB")
	}

	for _, s := range faultinject.MachineSites() {
		var owners, armable []design.ID
		for _, d := range design.Security.Designs() {
			if slices.Contains(d.Entry().Sites, s) {
				owners = append(owners, d)
			}
			tl, err := d.New(32, 8, 0, 1, 16, w)
			if err != nil {
				t.Fatal(err)
			}
			in := faultinject.New(s, 1)
			if in.Arm(tl, nil, nil) == nil {
				armable = append(armable, d)
				in.Disarm()
			}
		}
		if len(owners) > 1 {
			t.Errorf("site %s has %d owners %v, want at most one", s, len(owners), owners)
		}
		if owner, ok := design.SiteOwner(s); ok != (len(owners) == 1) || ok && owner != owners[0] {
			t.Errorf("SiteOwner(%s) = %v, %v; entries list %v", s, owner, ok, owners)
		}
		// A TLB site the injector arms on some designs only belongs to
		// exactly that design.
		if len(armable) > 0 && len(armable) < len(design.Security.Designs()) &&
			(len(armable) != 1 || len(owners) != 1 || owners[0] != armable[0]) {
			t.Errorf("site %s arms on %v but is owned by %v", s, armable, owners)
		}
	}
}

// TestTheoryDefendedCounts reproduces the bold pattern of the paper's
// Table 4 from the registry's theories: SA's theory gives zero capacity on
// 10 rows, SP's on 14 and RF's on all 24, and SP never leaks more than SA.
func TestTheoryDefendedCounts(t *testing.T) {
	c := func(d design.ID, v model.Vulnerability) float64 {
		return capacity.MutualInformation(d.Entry().Theory(v))
	}
	defended := map[design.ID]int{}
	for _, v := range model.Enumerate() {
		for _, d := range []design.ID{design.SA, design.SP, design.RF} {
			if c(d, v) < 1e-9 {
				defended[d]++
			}
		}
		if sp, sa := c(design.SP, v), c(design.SA, v); sp > sa+1e-9 {
			t.Errorf("%s: SP capacity %v exceeds SA %v", v, sp, sa)
		}
	}
	if defended[design.SA] != 10 || defended[design.SP] != 14 || defended[design.RF] != 24 {
		t.Errorf("defended counts (SA,SP,RF) = (%d,%d,%d), want (10,14,24)",
			defended[design.SA], defended[design.SP], defended[design.RF])
	}
}
