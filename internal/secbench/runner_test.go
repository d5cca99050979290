package secbench

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"securetlb/internal/model"
	"securetlb/internal/pool"
)

// TestShardedBitIdenticalToSerial is the determinism regression test for the
// trial-sharded campaign driver: for every design and all 24 base
// vulnerabilities the full Result slices — counts, probabilities, capacities
// AND bootstrap intervals — must be byte-identical between the one-worker
// reference (one shard per behaviour, on the template machine) and larger
// pools, including sizes that do not divide the trial count.
func TestShardedBitIdenticalToSerial(t *testing.T) {
	for _, tc := range []struct {
		design Design
		trials int
	}{
		{DesignSA, 6},
		{DesignSP, 6},
		{DesignRF, 40},
	} {
		cfg := testConfig(tc.design, tc.trials)
		serial := runVulns(t, cfg, model.Enumerate(), 1)
		if len(serial) != len(model.Enumerate()) {
			t.Fatalf("%s: expected all %d vulnerabilities, got %d",
				tc.design, len(model.Enumerate()), len(serial))
		}
		for _, workers := range []int{3, 0} {
			parallel := runVulns(t, cfg, model.Enumerate(), workers)
			// Result holds a slice-bearing Vulnerability, so compare deeply.
			if !reflect.DeepEqual(serial, parallel) {
				for i := range serial {
					if !reflect.DeepEqual(serial[i], parallel[i]) {
						t.Errorf("%s, %d workers, row %d (%s): serial %+v != sharded %+v",
							tc.design, workers, i, serial[i].Vulnerability,
							serial[i], parallel[i])
					}
				}
			}
		}
	}
}

func TestProgramCacheReusesAssembly(t *testing.T) {
	cfg := testConfig(DesignSA, 1)
	v := model.Enumerate()[0]
	p1, err := cfg.program(v, true)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := cfg.program(v, true)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("same (config, vulnerability, behaviour) assembled twice")
	}
	// Different behaviour, geometry or design must not collide.
	pm, err := cfg.program(v, false)
	if err != nil {
		t.Fatal(err)
	}
	if pm == p1 {
		t.Error("mapped and not-mapped variants share a cache entry")
	}
	small := cfg
	small.Entries, small.Ways = 8, 2
	ps, err := small.program(v, true)
	if err != nil {
		t.Fatal(err)
	}
	if ps == p1 {
		t.Error("different geometries share a cache entry")
	}
}

// TestConcurrentCampaignsOverClonedMachines drives two whole campaigns at
// once over one shared pool — the cloned machines of both interleave on the
// same workers. Run with -race this is the pool/clone race check; without it
// it still verifies both campaigns match their one-worker references.
func TestConcurrentCampaignsOverClonedMachines(t *testing.T) {
	cfgA := testConfig(DesignSA, 8)
	cfgB := testConfig(DesignRF, 30)
	vulns := model.Enumerate()
	vA, vB := vulns[:1], vulns[11:12]
	wantA := runVulns(t, cfgA, vA, 1)
	wantB := runVulns(t, cfgB, vB, 1)
	opts := RunOptions{Pool: pool.New(4)}
	var gotA, gotB CampaignReport
	var errA, errB error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); gotA, errA = cfgA.RunCampaign(context.Background(), vA, opts) }()
	go func() { defer wg.Done(); gotB, errB = cfgB.RunCampaign(context.Background(), vB, opts) }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("campaign errors: %v / %v", errA, errB)
	}
	if len(gotA.Quarantined)+len(gotB.Quarantined) != 0 {
		t.Fatalf("quarantined trials under contention: %+v %+v", gotA.Quarantined, gotB.Quarantined)
	}
	if !reflect.DeepEqual(gotA.Results, wantA) {
		t.Errorf("campaign A diverged under contention: %+v != %+v", gotA.Results, wantA)
	}
	if !reflect.DeepEqual(gotB.Results, wantB) {
		t.Errorf("campaign B diverged under contention: %+v != %+v", gotB.Results, wantB)
	}
}
