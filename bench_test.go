// Benchmark harness: one testing.B benchmark per paper table and figure,
// plus micro-benchmarks of the TLB designs and the ablation studies called
// out in DESIGN.md §5. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark regenerates (a scaled-down instance of) its experiment; the
// cmd/ tools run the full-size versions.
package securetlb

import (
	"context"
	"fmt"
	"math/big"
	"testing"

	"securetlb/internal/area"
	"securetlb/internal/attack"
	"securetlb/internal/capacity"
	"securetlb/internal/design"
	"securetlb/internal/model"
	"securetlb/internal/perf"
	"securetlb/internal/pool"
	"securetlb/internal/secbench"
	"securetlb/internal/tlb"
	"securetlb/internal/workload"
)

// --- Table 2: the three-step model enumeration ------------------------------

func BenchmarkTable2Enumeration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(model.Enumerate()) != 24 {
			b.Fatal("enumeration broke")
		}
	}
}

// --- Table 7 / Appendix B ----------------------------------------------------

func BenchmarkTable7ExtendedEnumeration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(model.EnumerateExtended()) != 60 {
			b.Fatal("extended enumeration broke")
		}
	}
}

// --- Appendix A / Algorithm 1 ------------------------------------------------

func BenchmarkAlgorithm1Reduction(b *testing.B) {
	steps := []model.State{
		model.Ainv, model.Ad, model.Vu, model.Ad, model.Star,
		model.Vu, model.Aa, model.Vu, model.Vinv, model.Vu, model.Aa,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(model.Reduce(steps).Effective) == 0 {
			b.Fatal("reduction lost the embedded vulnerabilities")
		}
	}
}

// --- Table 4: micro security benchmarks --------------------------------------

func benchTable4(b *testing.B, d secbench.Design, trials, wantDefended int, disableTrace bool) {
	cfg := secbench.DefaultConfig(d)
	// Scaled down; cmd/secbench runs the paper's 500 trials. The randomised
	// RF design needs more trials than the deterministic SA/SP to keep the
	// empirical capacity below the defended threshold.
	cfg.Trials = trials
	cfg.DisableTrace = disableTrace
	runTable4(b, cfg, wantDefended)
}

// runCampaign runs cfg's campaign over vulns the way cmd/secbench does,
// through RunCampaign on a pool of par workers (0 = all CPUs), and fails on
// any error or quarantined trial.
func runCampaign(b *testing.B, cfg secbench.Config, vulns []model.Vulnerability, par int) []secbench.Result {
	rep, err := cfg.RunCampaign(context.Background(), vulns, secbench.RunOptions{Parallelism: par})
	if err != nil {
		b.Fatal(err)
	}
	if n := len(rep.Quarantined); n != 0 {
		b.Fatalf("%d trials quarantined, first: %+v", n, rep.Quarantined[0])
	}
	return rep.Results
}

// runTable4 times the one-worker Table 4 campaign.
func runTable4(b *testing.B, cfg secbench.Config, wantDefended int) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := runCampaign(b, cfg, model.Enumerate(), 1)
		if n := secbench.DefendedCount(results); n != wantDefended {
			b.Fatalf("defended %d, want %d", n, wantDefended)
		}
	}
}

func BenchmarkTable4SecurityEvalSA(b *testing.B) { benchTable4(b, secbench.DesignSA, 20, 10, false) }
func BenchmarkTable4SecurityEvalSP(b *testing.B) { benchTable4(b, secbench.DesignSP, 20, 14, false) }
func BenchmarkTable4SecurityEvalRF(b *testing.B) { benchTable4(b, secbench.DesignRF, 120, 24, false) }

// BenchmarkTable4SecurityEvalFA is the costliest Table 4 design: one set of
// 32 ways, where 97% of the campaign's accesses miss, so it times the fill
// path: the tag scan that finds no match and the victim choice.
func BenchmarkTable4SecurityEvalFA(b *testing.B) { benchTable4(b, secbench.DesignFA, 20, 18, false) }

// BenchmarkTable4SecurityEvalRFFullExec is the full-execution twin of
// BenchmarkTable4SecurityEvalRF: the identical RF campaign with trace replay
// disabled, so every trial decodes and executes its program from scratch.
// The ratio of the two is the campaign replay speedup BENCH_campaign.json
// records.
func BenchmarkTable4SecurityEvalRFFullExec(b *testing.B) {
	benchTable4(b, secbench.DesignRF, 120, 24, true)
}

// BenchmarkTable4SecurityEvalRFChecked is the RF campaign on the checked
// path (secbench -invariants -no-trace): every trial executes on the
// interpreter under the assertion monitor, which snapshots the TLB array
// before and after every access.
func BenchmarkTable4SecurityEvalRFChecked(b *testing.B) {
	cfg := secbench.DefaultConfig(secbench.DesignRF)
	cfg.Trials, cfg.DisableTrace, cfg.Invariants = 120, true, true
	runTable4(b, cfg, 24)
}

// The RI and FS extension designs run the same scaled-down Table 4 campaign
// with their replay/full-execution twins. Both defend 18 of 24: what remains
// are exactly the six TLB-internal-collision patterns ending "… -> Vu -> Va
// fast", where the victim's own re-access is timed and no cross-context step
// sits between the priming access and the probe — nothing for the keyed
// index to decorrelate and no switch for the flush to fire on. The RI TLB is
// randomised like RF and gets the same trial count; FS is deterministic and
// runs at the SA/SP depth.
func BenchmarkTable4SecurityEvalRI(b *testing.B) { benchTable4(b, secbench.DesignRI, 120, 18, false) }
func BenchmarkTable4SecurityEvalRIFullExec(b *testing.B) {
	benchTable4(b, secbench.DesignRI, 120, 18, true)
}
func BenchmarkTable4SecurityEvalFS(b *testing.B) { benchTable4(b, secbench.DesignFS, 20, 18, false) }
func BenchmarkTable4SecurityEvalFSFullExec(b *testing.B) {
	benchTable4(b, secbench.DesignFS, 20, 18, true)
}

// --- trace-compiled campaign replay -------------------------------------------

// benchCampaign is the replay-vs-full A/B pair over the default security
// campaign (the full Table 4 sweep cmd/secbench runs: all 24 vulnerabilities
// against the SA, SP and RF designs at 120 trials/behaviour): identical work
// and identical results, differing only in whether trials replay captured
// traces or decode and execute every instruction. Each campaign runs on one
// worker. The defended counts are the Table 4 bottom line (10 + 14 + 24).
func benchCampaign(b *testing.B, disableTrace bool) {
	designs := []secbench.Design{secbench.DesignSA, secbench.DesignSP, secbench.DesignRF}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		defended := 0
		for _, d := range designs {
			cfg := secbench.DefaultConfig(d)
			cfg.Trials = 120
			cfg.DisableTrace = disableTrace
			results := runCampaign(b, cfg, model.Enumerate(), 1)
			defended += secbench.DefendedCount(results)
		}
		if defended != 10+14+24 {
			b.Fatalf("defended %d, want %d", defended, 10+14+24)
		}
	}
}

func BenchmarkCampaignTraceReplay(b *testing.B) { benchCampaign(b, false) }
func BenchmarkCampaignFullExec(b *testing.B)    { benchCampaign(b, true) }

// --- Table 4 theory columns ---------------------------------------------------

// BenchmarkTable4Theory evaluates the paper's Table 4 theory columns: the
// SA, SP and RF theories of the design registry and Eq. (1) for each of the
// 24 vulnerabilities.
func BenchmarkTable4Theory(b *testing.B) {
	vulns := model.Enumerate()
	for i := 0; i < b.N; i++ {
		for _, d := range []design.ID{design.SA, design.SP, design.RF} {
			for _, v := range vulns {
				capacity.MutualInformation(d.Entry().Theory(v))
			}
		}
	}
}

// --- Figures 7a-7f: IPC and MPKI sweeps ----------------------------------------

// figure7 runs one design's sweep on a one-worker pool.
func figure7(d perf.Design, secure bool, decrypts int, seed uint64) ([]perf.Row, error) {
	return perf.Figure7Pool(context.Background(), d, secure, decrypts, seed, pool.New(1), nil)
}

func benchFigure7(b *testing.B, d perf.Design, secure bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := figure7(d, secure, 3, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		var mpki float64
		for _, r := range rows {
			mpki += r.Metrics.MPKI
		}
		b.ReportMetric(mpki/float64(len(rows)), "avgMPKI")
	}
}

// benchFigure7Sweep is the Figure 7 half of the trace-replay A/B pair: the
// full three-design SecRSA sweep at a fixed seed, so the replay side reuses
// its captured access streams across iterations exactly as cmd/perfbench
// reuses them across cells. The guard tests in internal/perf prove the two
// sides produce bit-identical rows.
func benchFigure7Sweep(b *testing.B, disableTrace bool) {
	b.ReportAllocs()
	prev := perf.DisableTrace
	perf.DisableTrace = disableTrace
	defer func() { perf.DisableTrace = prev }()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rows int
		for _, d := range []perf.Design{perf.SA, perf.SP, perf.RF} {
			rs, err := figure7(d, true, 3, 7)
			if err != nil {
				b.Fatal(err)
			}
			rows += len(rs)
		}
		if rows != 35+30+30 {
			b.Fatalf("rows %d, want %d", rows, 35+30+30)
		}
	}
}

func BenchmarkFigure7TraceReplay(b *testing.B) { benchFigure7Sweep(b, false) }
func BenchmarkFigure7FullExec(b *testing.B)    { benchFigure7Sweep(b, true) }

func BenchmarkFigure7aSAIPC(b *testing.B)    { benchFigure7(b, perf.SA, false) }
func BenchmarkFigure7bSPIPC(b *testing.B)    { benchFigure7(b, perf.SP, false) }
func BenchmarkFigure7cRFIPC(b *testing.B)    { benchFigure7(b, perf.RF, false) }
func BenchmarkFigure7dSASecRSA(b *testing.B) { benchFigure7(b, perf.SA, true) }
func BenchmarkFigure7eSPSecRSA(b *testing.B) { benchFigure7(b, perf.SP, true) }
func BenchmarkFigure7fRFSecRSA(b *testing.B) { benchFigure7(b, perf.RF, true) }

// --- Table 5: area model --------------------------------------------------------

func BenchmarkTable5AreaModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(area.Table5()) != 31 {
			b.Fatal("table 5 broke")
		}
	}
}

// --- End-to-end attack -----------------------------------------------------------

func BenchmarkTLBleedKeyRecovery(b *testing.B) {
	rsa, err := NewRSAVictim(64, 7)
	if err != nil {
		b.Fatal(err)
	}
	c := rsa.Encrypt(big.NewInt(12345))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sa, _ := tlb.NewSetAssoc(32, 8, identityWalker())
		env := attack.Environment{TLB: sa, AttackerASID: 0, VictimASID: 1}
		res, err := env.TLBleed(rsa, c, 4, 8)
		if err != nil || res.Accuracy < 0.95 {
			b.Fatalf("attack degraded: %.2f (%v)", res.Accuracy, err)
		}
	}
}

// --- TLB design micro-benchmarks ---------------------------------------------------

// BenchmarkTranslate times one Translate per op on every security design at
// the secbench geometry (FA one set of 32), plus FA 128, the Figure 7
// width, with the hit and the miss path apart. The hit rung cycles a
// quarter of the entries, spread over the sets (it fits every design, and
// never reaches RI's 16 fills between re-keys); the miss rung cycles twice
// a set's ways through one set (four times the entries under RI's keyed
// index, re-keying as in campaigns). The counters must confirm that a hit
// rung never missed and a miss rung never hit.
func BenchmarkTranslate(b *testing.B) {
	type geom struct {
		name string
		cfg  secbench.Config
	}
	var geoms []geom
	for _, d := range design.Security.Designs() {
		geoms = append(geoms, geom{d.Entry().Name, secbench.DefaultConfig(d)})
	}
	fa128 := secbench.DefaultConfig(design.FA)
	fa128.Entries, fa128.Ways = 128, 128
	geoms = append(geoms, geom{"FA128", fa128})
	for _, g := range geoms {
		cfg := g.cfg
		sets := cfg.Entries / cfg.Ways
		hit := make([]tlb.VPN, cfg.Entries/4)
		for i := range hit {
			hit[i] = tlb.VPN(0x100 + i)
		}
		nmiss := 2 * cfg.Ways
		if cfg.Design == design.RI {
			nmiss = 4 * cfg.Entries
		}
		miss := make([]tlb.VPN, nmiss)
		for i := range miss {
			miss[i] = tlb.VPN(0x100 + i*sets)
		}
		for _, rung := range []struct {
			kind  string
			pages []tlb.VPN
		}{{"hit", hit}, {"miss", miss}} {
			b.Run(g.name+"/"+rung.kind, func(b *testing.B) {
				t, err := cfg.NewTLB(identityWalker(), cfg.BaseSeed)
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range rung.pages {
					t.Translate(0, p)
				}
				t.ResetStats()
				n := len(rung.pages)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := t.Translate(0, rung.pages[i%n]); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if st := t.Stats(); rung.kind == "hit" && st.Misses != 0 || rung.kind == "miss" && st.Hits != 0 {
					b.Fatalf("%d hits, %d misses", st.Hits, st.Misses)
				}
			})
		}
	}
}

// --- Ablations (DESIGN.md §5) --------------------------------------------------------

// BenchmarkAblationSPPartitionSweep sweeps the victim partition size and
// reports the co-run MPKI, the design-time trade-off §4.1.2 leaves open.
func BenchmarkAblationSPPartitionSweep(b *testing.B) {
	for _, victimWays := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("victimWays=%d", victimWays), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sp, err := tlb.NewSP(32, 4, victimWays, perfWalker())
				if err != nil {
					b.Fatal(err)
				}
				sp.SetVictim(1)
				m, err := perf.Run(perf.RunConfig{
					TLB: sp,
					Processes: []perf.Process{
						{ASID: 2, Gen: workload.Povray()},
					},
					MaxInstructions: 200_000,
					Seed:            int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(m.MPKI, "MPKI")
			}
		})
	}
}

// BenchmarkAblationRFLazyFill compares the paper's synchronous random fill
// against the rejected idle-cycle variant of §4.2.3: under a TLB-intensive
// secure workload the lazy engine starves and random fills are dropped.
func BenchmarkAblationRFLazyFill(b *testing.B) {
	for _, lazy := range []bool{false, true} {
		b.Run(fmt.Sprintf("lazy=%v", lazy), func(b *testing.B) {
			skipped := uint64(0)
			for i := 0; i < b.N; i++ {
				rf, err := tlb.NewRF(32, 8, identityWalker(), uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				rf.SetVictim(1)
				rf.SetSecureRegion(0x100, 31)
				rf.LazyFill = lazy
				rf.LazyFillWindow = 4
				for k := 0; k < 1000; k++ {
					if _, err := rf.Translate(1, tlb.VPN(0x100+uint64(k)%31)); err != nil {
						b.Fatal(err)
					}
				}
				skipped += rf.Stats().RandomFillSkips
			}
			b.ReportMetric(float64(skipped)/float64(b.N), "skippedFills")
		})
	}
}

// BenchmarkAblationRFWindowedVsFullRandom compares the footnote 6 windowed
// set randomisation with a secure region covering all sets versus one set:
// the window bounds how much of the TLB random fills can disturb.
func BenchmarkAblationRFWindowedVsFullRandom(b *testing.B) {
	for _, ssize := range []uint64{1, 4, 31} {
		b.Run(fmt.Sprintf("ssize=%d", ssize), func(b *testing.B) {
			evictions := uint64(0)
			for i := 0; i < b.N; i++ {
				rf, err := tlb.NewRF(32, 8, identityWalker(), uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				rf.SetVictim(1)
				rf.SetSecureRegion(0x100, ssize)
				for k := 0; k < 500; k++ {
					rf.Translate(1, tlb.VPN(0x100+uint64(k)%ssize))
					rf.Translate(2, tlb.VPN(0x500+uint64(k)%32))
				}
				evictions += rf.Stats().Evictions
			}
			b.ReportMetric(float64(evictions)/float64(b.N), "evictions")
		})
	}
}

func perfWalker() tlb.Walker {
	return tlb.WalkerFunc(func(asid tlb.ASID, vpn tlb.VPN) (tlb.PPN, uint64, error) {
		return tlb.PPN(vpn), 60, nil
	})
}

// BenchmarkAblationCoalescedSPReach quantifies the §6.4 suggestion: a
// COLT-style coalesced, partitioned TLB recovers the MPKI the SP TLB loses
// to its halved effective capacity.
func BenchmarkAblationCoalescedSPReach(b *testing.B) {
	variants := []struct {
		name string
		mk   func() (tlb.TLB, error)
	}{
		{"SA", func() (tlb.TLB, error) { return tlb.NewSetAssoc(32, 4, perfWalker()) }},
		{"SP", func() (tlb.TLB, error) {
			sp, err := tlb.NewSP(32, 4, 2, perfWalker())
			if err == nil {
				sp.SetVictim(1)
			}
			return sp, err
		}},
		{"CoalescedSPx8", func() (tlb.TLB, error) {
			co, err := tlb.NewCoalescedSP(32, 4, 8, 2, perfWalker())
			if err == nil {
				co.SetVictim(1)
			}
			return co, err
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := v.mk()
				if err != nil {
					b.Fatal(err)
				}
				m, err := perf.Run(perf.RunConfig{
					TLB:             t,
					Processes:       []perf.Process{{ASID: 2, Gen: workload.Povray()}},
					MaxInstructions: 200_000,
					Seed:            int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(m.MPKI, "MPKI")
			}
		})
	}
}

// --- Trial-sharded parallel runner --------------------------------------------

// The Serial/Parallel pairs below measure the campaign driver at one worker
// and at all CPUs on identical configurations; compare them with benchstat
// (or by eye) to see the trial-sharding speedup on this machine. The RF
// design is the interesting one: its randomised trials dominate the full
// sweep's runtime.

func benchRunVulnerability(b *testing.B, par int) {
	cfg := secbench.DefaultConfig(secbench.DesignRF)
	cfg.Trials = 250
	vulns := model.Enumerate()[11:12]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runCampaign(b, cfg, vulns, par)
	}
}

func BenchmarkRunVulnerabilitySerial(b *testing.B)   { benchRunVulnerability(b, 1) }
func BenchmarkRunVulnerabilityParallel(b *testing.B) { benchRunVulnerability(b, 0) }

func benchRunAll(b *testing.B, par int) {
	cfg := secbench.DefaultConfig(secbench.DesignRF)
	cfg.Trials = 120
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := runCampaign(b, cfg, model.Enumerate(), par)
		if n := secbench.DefendedCount(results); n != 24 {
			b.Fatalf("defended %d, want 24", n)
		}
	}
}

func BenchmarkRunAllSerial(b *testing.B)   { benchRunAll(b, 1) }
func BenchmarkRunAllParallel(b *testing.B) { benchRunAll(b, 0) }
