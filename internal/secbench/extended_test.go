package secbench

import (
	"strings"
	"testing"

	"securetlb/internal/asm"
	"securetlb/internal/model"
)

func TestExtendedGenerateAssembles(t *testing.T) {
	for _, d := range []Design{DesignSA, DesignSP, DesignRF} {
		cfg := testConfig(d, 1)
		for _, v := range model.EnumerateExtended() {
			for _, mapped := range []bool{true, false} {
				src, err := cfg.Generate(v, mapped)
				if err != nil {
					t.Fatalf("%s/%s mapped=%v: %v", d, v, mapped, err)
				}
				if _, err := asm.Assemble(src); err != nil {
					t.Errorf("%s/%s does not assemble: %v", d, v, err)
				}
			}
		}
	}
}

func TestExtendedBenchmarkStructure(t *testing.T) {
	cfg := testConfig(DesignSA, 1)
	// A Flush+Flush pattern: Step 3 is a timed invalidation, so the
	// measurement must use the cycle CSR, not the miss counter.
	v, ok := model.Find(model.EnumerateExtended(),
		model.Pattern{model.Ainv, model.Vu, model.AaInv})
	if !ok {
		t.Fatal("Flush+Flush row missing")
	}
	src, err := cfg.Generate(v, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"csrr x28, cycle",
		"csrw tlb_flush_page_all, x1",
		"csrr x29, cycle",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("Flush+Flush benchmark missing %q:\n%s", want, src)
		}
	}
	if strings.Contains(src, "tlb_miss_count") {
		t.Error("invalidation-timed step must not read the miss counter")
	}
}

func TestExtendedSAAgreesWithOracle(t *testing.T) {
	// The empirical extended campaign on the deterministic SA TLB must
	// agree, row for row, with the design-aware symbolic oracle.
	cfg := testConfig(DesignSA, 6)
	results := runVulns(t, cfg, model.EnumerateExtended(), 0)
	for _, r := range results {
		oracleVulnerable := model.ObservationInformative(
			r.Vulnerability.Pattern, model.DesignASID, r.Vulnerability.Observation)
		if oracleVulnerable == r.Defended() {
			t.Errorf("SA %s: oracle says vulnerable=%v, empirical C*=%.2f (p1=%.2f p2=%.2f)",
				r.Vulnerability, oracleVulnerable, r.C, r.P1, r.P2)
		}
	}
}

func TestExtendedSPAgreesWithOracle(t *testing.T) {
	cfg := testConfig(DesignSP, 6)
	results := runVulns(t, cfg, model.EnumerateExtended(), 0)
	for _, r := range results {
		oracleVulnerable := model.ObservationInformative(
			r.Vulnerability.Pattern, model.DesignPartitioned, r.Vulnerability.Observation)
		if oracleVulnerable == r.Defended() {
			t.Errorf("SP %s: oracle says vulnerable=%v, empirical C*=%.2f",
				r.Vulnerability, oracleVulnerable, r.C)
		}
	}
}

func TestExtendedDefenseCounts(t *testing.T) {
	// Snapshot of the extended-model defense landscape: targeted
	// invalidation is address-based, so it pierces ASID tagging (SA defends
	// fewer extended types than base types) and partitioning adds the same
	// eviction protections as in the base model.
	counts := map[Design]int{}
	for _, d := range []Design{DesignSA, DesignSP} {
		cfg := testConfig(d, 6)
		results := runVulns(t, cfg, model.EnumerateExtended(), 0)
		counts[d] = DefendedCount(results)
	}
	if counts[DesignSA] != 8 {
		t.Errorf("SA defends %d/60 extended types, snapshot expects 8", counts[DesignSA])
	}
	if counts[DesignSP] != 14 {
		t.Errorf("SP defends %d/60 extended types, snapshot expects 14", counts[DesignSP])
	}
}

func TestExtendedRFPartialDefense(t *testing.T) {
	// The Random-Fill design mediates fills, not invalidations: it defends
	// the extended types whose signal still flows through a fill, but NOT
	// the ones whose signal is carried by a targeted invalidation of a
	// known address (Flush+Probe, Flush+Time, Flush+Flush on a, Prime+Probe
	// Invalidation on a, ...). This matches the paper's scoping — Appendix B
	// treats these as future-ISA concerns outside the designs' threat model.
	cfg := testConfig(DesignRF, 150)
	results := runVulns(t, cfg, model.EnumerateExtended(), 0)
	defended := DefendedCount(results)
	if defended < 40 || defended >= len(results) {
		t.Errorf("RF defends %d/%d extended types; expected partial defense (~46)", defended, len(results))
	}
	check := func(p model.Pattern, wantDefended bool) {
		t.Helper()
		for _, r := range results {
			if r.Vulnerability.Pattern == p {
				if r.Defended() != wantDefended {
					t.Errorf("RF %s: defended=%v (C*=%.2f), want %v",
						r.Vulnerability, r.Defended(), r.C, wantDefended)
				}
				return
			}
		}
		t.Errorf("pattern %s not in extended campaign", p)
	}
	// Flush+Probe: the victim's invalidation of u deterministically removes
	// the attacker's primed a when u == a — random fill never intervenes.
	check(model.Pattern{model.Aa, model.VuInv, model.Aa}, false)
	// Prime+Probe Invalidation on a: same leak through invalidation timing.
	check(model.Pattern{model.Aa, model.Vu, model.AaInv}, false)
	// Invalidation-primed Internal Collision still flows through the fill
	// path, which the RFE randomises: defended.
	check(model.Pattern{model.AaInv, model.Vu, model.Va}, true)
	// Reload+Time against the attacker's reload: ASID tagging keeps the
	// final observation constant: defended.
	check(model.Pattern{model.VuInv, model.Aa, model.Vu}, true)
}

func TestInvalidationTimingDeterministic(t *testing.T) {
	// The Flush+Flush benchmark's x30 must be exactly 1 when the entry is
	// present and 0 when absent, i.e. the invMeasureBaseline constant is in
	// sync with the core's timing model.
	cfg := testConfig(DesignSA, 4)
	v, ok := model.Find(model.EnumerateExtended(),
		model.Pattern{model.Ainv, model.Vu, model.AaInv})
	if !ok {
		t.Fatal("Flush+Flush row missing")
	}
	r := runOne(t, cfg, v, 0)
	// mapped (u == a): the victim's u fill IS a's entry -> present -> slow.
	if r.Counts.MappedMisses != cfg.Trials {
		t.Errorf("mapped slow observations = %d/%d, want all (entry present)",
			r.Counts.MappedMisses, cfg.Trials)
	}
	// not mapped: a never entered the TLB -> absent -> fast.
	if r.Counts.NotMappedMisses != 0 {
		t.Errorf("unmapped slow observations = %d, want 0 (entry absent)",
			r.Counts.NotMappedMisses)
	}
}

func TestBaseCampaignUnchangedByExtension(t *testing.T) {
	// The generator rework (scenario-keyed expansion, invalidation support)
	// must leave the base Table 4 verdicts intact.
	for _, tc := range []struct {
		d    Design
		want int
	}{{DesignSA, 10}, {DesignSP, 14}} {
		cfg := testConfig(tc.d, 6)
		results := runVulns(t, cfg, model.Enumerate(), 0)
		if n := DefendedCount(results); n != tc.want {
			t.Errorf("%s defends %d/24, want %d", tc.d, n, tc.want)
		}
	}
}

func TestCampaignSurvivesRFRandomFillFaults(t *testing.T) {
	// Failure injection through the whole stack: the RF TLB's random fill
	// may draw any page of the secure region; the benchmark generator must
	// therefore map the entire region (footnote 5). Verify by checking that
	// full campaigns complete for every secure-region size in use — a
	// missing mapping would surface as a page-fault error here.
	for _, d := range []Design{DesignRF} {
		runVulns(t, testConfig(d, 10), model.Enumerate(), 0)
	}
}

func TestGeneratorRejectsBadGeometry(t *testing.T) {
	cfg := testConfig(DesignSA, 1)
	cfg.Entries = 30 // not divisible by ways
	v := model.Enumerate()[0]
	if _, err := cfg.Generate(v, true); err == nil {
		t.Error("bad geometry should be rejected")
	}
	cfg = testConfig(DesignSA, 1)
	cfg.Design = Design(9)
	if _, err := cfg.NewTLB(nil, 0); err == nil {
		t.Error("unknown design should be rejected")
	}
}
