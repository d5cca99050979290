package secbench

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"securetlb/internal/faultinject"
	"securetlb/internal/model"
)

// replayTestConfig is DefaultConfig shrunk to guard-test scale: enough trials
// for counter divergence to surface, few enough to keep the A/B sweeps fast.
func replayTestConfig(d Design) Config {
	c := DefaultConfig(d)
	c.Trials = 60
	return c
}

// replayTestVulns spans the pattern/observation space without running all 24
// vulnerabilities per design and mode.
func replayTestVulns(t *testing.T) []model.Vulnerability {
	t.Helper()
	all := model.Enumerate()
	var out []model.Vulnerability
	for _, i := range []int{0, 5, 11, 17, 23} {
		if i < len(all) {
			out = append(out, all[i])
		}
	}
	return out
}

// TestReplayCampaignActive pins down that the trace path is actually taken:
// a traceable config's campaigns carry a replay VM, and the two opt-out
// conditions (DisableTrace, armed fault injection) route to full execution.
func TestReplayCampaignActive(t *testing.T) {
	v := model.Enumerate()[0]
	for _, d := range AllDesigns() {
		c := replayTestConfig(d)
		camp, err := c.newCampaign(v, true)
		if err != nil {
			t.Fatalf("%s: newCampaign: %v", d, err)
		}
		if camp.vm == nil || camp.tr == nil {
			t.Errorf("%s: traceable campaign did not get a replay VM", d)
		}
		clone, err := camp.clone()
		if err != nil {
			t.Fatalf("%s: clone: %v", d, err)
		}
		if clone.vm == nil || clone.vm == camp.vm || clone.tr != camp.tr {
			t.Errorf("%s: clone must fork the VM and share the trace", d)
		}

		c.DisableTrace = true
		if camp, err = c.newCampaign(v, true); err != nil {
			t.Fatalf("%s: newCampaign(DisableTrace): %v", d, err)
		}
		if camp.vm != nil {
			t.Errorf("%s: DisableTrace campaign got a replay VM", d)
		}

		c.DisableTrace = false
		c.FaultSite = faultinject.SiteDropFill
		if camp, err = c.newCampaign(v, true); err != nil {
			t.Fatalf("%s: newCampaign(FaultSite): %v", d, err)
		}
		if camp.vm != nil {
			t.Errorf("%s: fault-injecting campaign got a replay VM", d)
		}
	}
}

// TestReplayMatchesFullExecution is the bit-identity guard: for every design,
// with and without the invariant checker, replayed campaigns produce Results
// — counts, probabilities, capacity and bootstrap CIs — identical to full
// decode-and-execute on one worker, at one, four and GOMAXPROCS workers.
func TestReplayMatchesFullExecution(t *testing.T) {
	vulns := replayTestVulns(t)
	for _, d := range AllDesigns() {
		for _, inv := range []bool{false, true} {
			full := replayTestConfig(d)
			full.Invariants = inv
			full.DisableTrace = true
			want := runVulns(t, full, vulns, 1)

			replay := full
			replay.DisableTrace = false
			for _, workers := range []int{1, 4, 0} {
				got := runVulns(t, replay, vulns, workers)
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Errorf("%s inv=%v %s, %d workers: replay diverged:\n full:   %+v\n replay: %+v",
							d, inv, vulns[i], workers, want[i], got[i])
					}
				}
			}
		}
	}
}

// TestReplayQuarantineIdentity drives the campaign driver with injected
// per-trial failures: replay must meter fuel exactly like full execution,
// quarantining the same trials with the same kinds and completing with the
// same surviving statistics, at one and four workers. The inputs are a fixed
// ten-instruction squeeze, a budget that runs out inside each unit's trace
// body (so a body-only replay fails and the trial after it must replay the
// whole trace), and an Inject hook that panics.
func TestReplayQuarantineIdentity(t *testing.T) {
	vulns := replayTestVulns(t)[:2]
	// bodyFuel runs out inside each unit's trace body: above the prefix's
	// retirements, below the whole trace's.
	bodyFuel := map[string]uint64{}
	unit := func(v model.Vulnerability, mapped bool) string { return fmt.Sprintf("%s/%v", v, mapped) }
	for _, v := range vulns {
		for _, mapped := range []bool{true, false} {
			cp, err := replayTestConfig(DesignRF).newCampaign(v, mapped)
			if err != nil {
				t.Fatal(err)
			}
			if cp.prefix == nil {
				t.Fatalf("%s mapped=%v: trace has no prefix; the body-fuel input is vacuous", v, mapped)
			}
			f := (cp.prefix.Instret + cp.tr.Instret) / 2
			if f <= cp.prefix.Instret || f >= cp.tr.Instret {
				t.Fatalf("%s mapped=%v: no budget between prefix (%d) and trace (%d) retirements",
					v, mapped, cp.prefix.Instret, cp.tr.Instret)
			}
			bodyFuel[unit(v, mapped)] = f
			cp.release()
		}
	}
	for _, tc := range []struct {
		name   string
		inject func(v model.Vulnerability, mapped bool, trial int) uint64
	}{
		{"prefix-fuel", func(v model.Vulnerability, mapped bool, trial int) uint64 {
			if trial%17 == 3 {
				return 10 // starve the trial: fuel-exhausted quarantine
			}
			return 0
		}},
		{"body-fuel", func(v model.Vulnerability, mapped bool, trial int) uint64 {
			if trial%13 == 5 {
				return bodyFuel[unit(v, mapped)]
			}
			return 0
		}},
		{"panic", func(v model.Vulnerability, mapped bool, trial int) uint64 {
			if trial%11 == 7 {
				panic("injected trial crash")
			}
			return 0
		}},
	} {
		for _, workers := range []int{1, 4} {
			run := func(disable bool) CampaignReport {
				t.Helper()
				c := replayTestConfig(DesignRF)
				c.DisableTrace = disable
				c.Inject = tc.inject
				rep, err := c.RunCampaign(context.Background(), vulns, RunOptions{Parallelism: workers})
				if err != nil {
					t.Fatalf("%s, %d workers: RunCampaign(disable=%v): %v", tc.name, workers, disable, err)
				}
				return rep
			}
			want, got := run(true), run(false)
			if len(want.Quarantined) == 0 {
				t.Fatalf("%s quarantined nothing; the guard is vacuous", tc.name)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %d workers: replay diverged:\n full:   %+v\n replay: %+v", tc.name, workers, want, got)
			}
		}
	}
}

// TestReplayFaultCampaignUnchanged runs a fault-injection campaign (which
// must bypass tracing) under both settings of DisableTrace; the reports must
// be identical because both take the full-execution path.
func TestReplayFaultCampaignUnchanged(t *testing.T) {
	vulns := replayTestVulns(t)[:1]
	run := func(disable bool) CampaignReport {
		t.Helper()
		c := replayTestConfig(DesignSA)
		c.DisableTrace = disable
		c.FaultSite = faultinject.SiteDropFill
		c.FaultSeed = 0xfa117
		rep, err := c.RunCampaign(context.Background(), vulns, RunOptions{Parallelism: 2})
		if err != nil {
			t.Fatalf("RunCampaign(disable=%v): %v", disable, err)
		}
		return rep
	}
	want, got := run(true), run(false)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("faulted campaign diverged:\n full:   %+v\n replay: %+v", want, got)
	}
}
