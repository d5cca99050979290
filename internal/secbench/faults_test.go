package secbench

import (
	"context"
	"fmt"
	"testing"

	"securetlb/internal/faultinject"
	"securetlb/internal/model"
)

// matrixVuln picks a vulnerability that exercises every event class the
// machine fault sites hook: a victim access step (secure-region traffic, so
// the RF engine draws) plus enough fills and re-touches per trial.
func matrixVuln(t testing.TB) model.Vulnerability {
	t.Helper()
	for _, v := range model.Enumerate() {
		for _, s := range v.Pattern {
			if s.Actor == model.ActorV && (s.Class == model.ClassU || s.Class == model.ClassA) {
				return v
			}
		}
	}
	t.Fatal("no vulnerability with a victim access step")
	return model.Vulnerability{}
}

func matrixConfig(d Design) Config {
	c := DefaultConfig(d)
	c.Trials = 12
	c.Invariants = true
	c.FaultSeed = 0xfa117
	// The matrix vulnerability performs only a handful of fills per trial;
	// re-keying every 2 fills makes the RI re-key site reachable mid-trial.
	c.RekeyFills = 2
	return c
}

// TestFaultMatrix is the acceptance gate of the fault-injection layer: every
// registered machine site, on every applicable design, must produce zero
// silent corruptions (a faulted outcome differing from the clean run without
// a reported detection), and every site must be detected at least once
// across the matrix.
func TestFaultMatrix(t *testing.T) {
	v := matrixVuln(t)
	for _, site := range faultinject.MachineSites() {
		site := site
		t.Run(string(site), func(t *testing.T) {
			designs := DesignsForSite(site)
			detected := 0
			for _, d := range designs {
				cfg := matrixConfig(d)
				cell, err := cfg.RunFaultCell(v, true, site, cfg.Trials)
				if err != nil {
					t.Fatalf("%s on %s: %v", site, d, err)
				}
				if len(cell.Silent) > 0 {
					t.Errorf("%s on %s: silent corruption at trials %v (detail: %s)",
						site, d, cell.Silent, cell.Detail)
				}
				if cell.DetectedTotal()+cell.Benign+cell.Latent != cell.Trials {
					t.Errorf("%s on %s: classification does not cover all trials: %+v", site, d, cell)
				}
				detected += cell.DetectedTotal()
			}
			if detected == 0 {
				t.Errorf("site %s was never detected on any design", site)
			}
		})
	}
}

// TestFaultMatrixCheckpointSites verifies the at-rest sites: a corrupted
// checkpoint must never resume silently — every seed either fails loudly or
// recovers bit-identical content, and the loud failure must actually occur.
func TestFaultMatrixCheckpointSites(t *testing.T) {
	cfg := matrixConfig(DesignSA)
	for _, site := range []faultinject.Site{faultinject.SiteCheckpointTruncate, faultinject.SiteCheckpointBitRot} {
		site := site
		t.Run(string(site), func(t *testing.T) {
			dir := t.TempDir()
			detections := 0
			for seed := uint64(1); seed <= 8; seed++ {
				detected, detail, err := cfg.VerifyCheckpointFault(dir, site, seed)
				if err != nil {
					t.Errorf("seed %d: %v", seed, err)
					continue
				}
				if detected {
					detections++
				} else {
					t.Logf("seed %d: benign at-rest fault (%s)", seed, detail)
				}
			}
			if detections == 0 {
				t.Errorf("site %s never triggered a loud resume failure in 8 seeds", site)
			}
		})
	}
}

// TestFaultCellDeterministic requires a full differential cell to reproduce
// bit-for-bit: same seeds, same trigger ordinals, same classifications.
func TestFaultCellDeterministic(t *testing.T) {
	v := matrixVuln(t)
	cfg := matrixConfig(DesignRF)
	run := func() string {
		cell, err := cfg.RunFaultCell(v, true, faultinject.SiteTagFlip, 8)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v|%d|%d|%v|%s", cell.Detected, cell.Benign, cell.Latent, cell.Silent, cell.Detail)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("fault cell not deterministic:\n  %s\n  %s", a, b)
	}
}

// TestCampaignWithFaultsQuarantines drives the production resilient runner
// with a fault site armed and invariants on: every faulted trial must land
// in quarantine with kind "invariant" (never abort the campaign), and the
// survivor accounting must stay consistent.
func TestCampaignWithFaultsQuarantines(t *testing.T) {
	cfg := matrixConfig(DesignSA)
	cfg.Trials = 16
	cfg.FaultSite = faultinject.SiteDropFill
	v := matrixVuln(t)
	report, err := cfg.RunCampaign(context.Background(), []model.Vulnerability{v}, RunOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Results) != 1 {
		t.Fatalf("results = %d, want 1", len(report.Results))
	}
	if len(report.Quarantined) == 0 {
		t.Fatal("no trial was quarantined despite a dropped-fill fault on every trial")
	}
	for _, q := range report.Quarantined {
		if q.Kind != "invariant" {
			t.Errorf("trial %d (mapped=%v) quarantined as %q, want invariant: %s", q.Trial, q.Mapped, q.Kind, q.Reason)
		}
	}
	counts := report.Results[0].Counts
	mappedQ, notMappedQ := 0, 0
	for _, q := range report.Quarantined {
		if q.Mapped {
			mappedQ++
		} else {
			notMappedQ++
		}
	}
	if counts.Mapped+mappedQ != cfg.Trials || counts.NotMapped+notMappedQ != cfg.Trials {
		t.Errorf("survivors + quarantined != trials: %+v with %d/%d quarantined", counts, mappedQ, notMappedQ)
	}

	// Survivor bit-identity: a clean campaign's per-trial outcomes must match
	// the faulted campaign's over exactly the surviving trial indices.
	clean := cfg
	clean.FaultSite = ""
	quarantined := map[[2]any]bool{}
	for _, q := range report.Quarantined {
		quarantined[[2]any{q.Mapped, q.Trial}] = true
	}
	for _, mapped := range []bool{true, false} {
		cp, err := clean.newCampaign(v, mapped)
		if err != nil {
			t.Fatal(err)
		}
		misses := 0
		for trial := 0; trial < cfg.Trials; trial++ {
			miss, err := cp.runTrial(clean.trialSeed(trial, mapped), clean.fuel(), false)
			if err != nil {
				t.Fatalf("clean trial %d: %v", trial, err)
			}
			if miss && !quarantined[[2]any{mapped, trial}] {
				misses++
			}
		}
		want := counts.MappedMisses
		if !mapped {
			want = counts.NotMappedMisses
		}
		if misses != want {
			t.Errorf("mapped=%v: survivor misses %d != clean-over-survivors %d", mapped, want, misses)
		}
	}
}

// TestInvariantsCleanCampaign runs a fault-free campaign with invariants on:
// the checker must stay silent on every design (no false positives under the
// real benchmark traffic) and the statistics must equal the unchecked run.
func TestInvariantsCleanCampaign(t *testing.T) {
	v := matrixVuln(t)
	for _, d := range AllDesigns() {
		cfg := DefaultConfig(d)
		cfg.Trials = 24
		checked := cfg
		checked.Invariants = true
		base := runOne(t, cfg, v, 0)
		got := runOne(t, checked, v, 0)
		if base.Counts != got.Counts {
			t.Errorf("%s: invariant checking changed the statistics: %+v vs %+v", d, base.Counts, got.Counts)
		}
	}
}

// TestEverySiteCaughtByAnAssertion is the cross-matrix coverage gate of the
// assertion layer: every registered fault site must be detected by at least
// one *named* declarative assertion on at least one design (for the two
// at-rest checkpoint sites, by the corrupt-checkpoint refusal, which is their
// detection surface). A site that only ever surfaces as a generic fault or
// stays latent at this sampling depth fails the test.
func TestEverySiteCaughtByAnAssertion(t *testing.T) {
	v := matrixVuln(t)
	for _, site := range faultinject.Sites() {
		site := site
		t.Run(string(site), func(t *testing.T) {
			if site == faultinject.SiteCheckpointTruncate || site == faultinject.SiteCheckpointBitRot {
				cfg := matrixConfig(DesignSA)
				dir := t.TempDir()
				for seed := uint64(1); seed <= 8; seed++ {
					detected, _, err := cfg.VerifyCheckpointFault(dir, site, seed)
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					if detected {
						return
					}
				}
				t.Fatalf("at-rest site %s never refused a corrupted checkpoint in 8 seeds", site)
			}
			designs := DesignsForSite(site)
			// Escalate the sampling depth before declaring a coverage hole:
			// some sites need more trials for the trigger ordinal to land on
			// an assertion-visible operation.
			for _, trials := range []int{12, 32, 96} {
				for _, d := range designs {
					cfg := matrixConfig(d)
					cell, err := cfg.RunFaultCell(v, true, site, trials)
					if err != nil {
						t.Fatalf("%s on %s: %v", site, d, err)
					}
					for name, n := range cell.Assertions {
						if n > 0 {
							t.Logf("%s caught by %s on %s (%d/%d trials)", site, name, d, n, trials)
							return
						}
					}
				}
			}
			t.Fatalf("site %s was never attributed to a named assertion on any design", site)
		})
	}
}

// TestInvariantsDisableTraceBitIdentity pins the -invariants x -no-trace
// interaction: assertions force the interpreter (the monitor implements
// neither FastTranslator nor CounterReader), so all four combinations of
// {Invariants, DisableTrace} must produce bit-identical statistics on every
// design.
func TestInvariantsDisableTraceBitIdentity(t *testing.T) {
	v := matrixVuln(t)
	for _, d := range AllDesigns() {
		var ref *Result
		for _, inv := range []bool{false, true} {
			for _, noTrace := range []bool{false, true} {
				cfg := DefaultConfig(d)
				cfg.Trials = 12
				cfg.Invariants = inv
				cfg.DisableTrace = noTrace
				res := runOne(t, cfg, v, 0)
				if ref == nil {
					r := res
					ref = &r
					continue
				}
				if res.Counts != ref.Counts {
					t.Errorf("%s inv=%v noTrace=%v: counts %+v differ from baseline %+v",
						d, inv, noTrace, res.Counts, ref.Counts)
				}
			}
		}
	}
}
