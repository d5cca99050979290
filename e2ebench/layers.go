package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"securetlb/internal/asm"
	"securetlb/internal/assert"
	"securetlb/internal/cpu"
	"securetlb/internal/isa"
	"securetlb/internal/mem"
	"securetlb/internal/model"
	"securetlb/internal/perf"
	"securetlb/internal/ptw"
	"securetlb/internal/secbench"
	"securetlb/internal/tlb"
	"securetlb/internal/trace"
	"securetlb/internal/workload"
)

// The campaign machine layout the secbench runner uses: the attacker and
// the victim each get an address space.
const (
	attackerASID tlb.ASID = 0
	victimASID   tlb.ASID = 1
)

// Decomposition sizes: trials replayed or executed per program, and how
// many times the tight-loop rungs repeat.
const (
	replayTrials = 20
	cpuTrials    = 10
	loopReps     = 50
)

// coreCfg is the campaign core timing: the Appendix B two-cycle targeted
// invalidation on, as in every campaign machine.
var coreCfg = func() cpu.Config {
	c := cpu.DefaultConfig
	c.VariableFlushTiming = true
	return c
}()

// rig is one campaign machine built from the packages' public parts.
type rig struct {
	mach *cpu.Machine
	pt   *ptw.PageTables
	tlb  tlb.TLB
}

// program generates and assembles one benchmark, with a span around each.
func program(cfg secbench.Config, v model.Vulnerability, mapped bool, tr *tracer) (*isa.Program, error) {
	sp := tr.begin("secbench.Generate", -1, 0)
	src, err := cfg.Generate(v, mapped)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("asm.Assemble", -1, 0)
	prog, err := asm.Assemble(src)
	tr.end(sp)
	return prog, err
}

// newRig builds a campaign machine as the secbench runner does: replay
// machines put a memoizing walker over the page tables, full-execution
// machines walk them directly, and checked configs wrap the TLB in the
// assertion monitor with the translation cross-check.
func newRig(cfg secbench.Config, prog *isa.Program, memo bool) (*rig, error) {
	m := mem.New(cfg.MemLatency)
	pt := ptw.New(m, 0x100000)
	var w tlb.Walker = pt
	if memo {
		base, span := memoWindow(cfg, prog)
		w = trace.NewMemoWalker(pt, int(victimASID)+1, base, span)
	}
	t, err := cfg.NewTLB(w, cfg.BaseSeed)
	if err != nil {
		return nil, err
	}
	if cfg.Invariants {
		if t, err = assert.Wrap(t, w, assert.Options{CrossCheck: true}); err != nil {
			return nil, err
		}
	}
	mach := cpu.New(t, pt, m, coreCfg)
	if err := mach.Load(prog, []tlb.ASID{attackerASID, victimASID}); err != nil {
		return nil, err
	}
	return &rig{mach: mach, pt: pt, tlb: t}, nil
}

// memoWindow is the dense memo-walker window the runner gives a program:
// its data pages plus one set's worth of margin on each side.
func memoWindow(cfg secbench.Config, prog *isa.Program) (tlb.VPN, uint64) {
	if len(prog.DataPages) == 0 {
		return 0, 0
	}
	sets := uint64(cfg.Entries / cfg.Ways)
	lo, hi := prog.DataPages[0], prog.DataPages[len(prog.DataPages)-1]
	margin := sets + 1
	if lo > margin {
		lo -= margin
	} else {
		lo = 0
	}
	hi += margin
	return tlb.VPN(lo), min(hi-lo+1, 1<<16)
}

// resetTrial is the runner's per-trial protocol: flush, zero the counters,
// restart the design's randomness from the trial seed.
func resetTrial(t tlb.TLB, seed uint64) {
	t.FlushAll()
	t.ResetStats()
	if rs, ok := assert.Unwrap(t).(interface{ Reseed(uint64) }); ok {
		rs.Reseed(seed)
	}
}

func trialSeed(i int) uint64 { return 0x9e3779b97f4a7c15 * uint64(i+1) }

// runFull executes one trial on the interpreter.
func (r *rig) runFull(seed uint64) (int64, error) {
	r.mach.Reset()
	resetTrial(r.tlb, seed)
	return r.mach.Run(secbench.DefaultTrialFuel)
}

// instructionsPerTrial sums, per design, the instructions one trial of
// each of the 48 programs retires. A program's control flow never depends
// on the trial's randomness (that is what lets a trace replay it), so one
// trial per program gives the count for all of them; a second seed checks
// that.
func instructionsPerTrial(designs []secbench.Design, checked bool) (map[secbench.Design]uint64, error) {
	out := map[secbench.Design]uint64{}
	for _, d := range designs {
		cfg := secbench.DefaultConfig(d)
		cfg.Invariants = checked
		for _, v := range model.Enumerate() {
			for _, mapped := range []bool{true, false} {
				prog, err := program(cfg, v, mapped, nil)
				if err != nil {
					return nil, err
				}
				r, err := newRig(cfg, prog, false)
				if err != nil {
					return nil, err
				}
				var n [2]uint64
				for i := range n {
					if _, err := r.runFull(trialSeed(i)); err != nil {
						return nil, fmt.Errorf("%s %s: %w", d, v, err)
					}
					n[i] = r.mach.Instret()
				}
				if n[0] != n[1] {
					return nil, fmt.Errorf("%s %s: trial length varies with the seed (%d vs %d)", d, v, n[0], n[1])
				}
				out[d] += n[0]
			}
		}
	}
	return out, nil
}

// layers decomposes a campaign op: per (design, vulnerability, behaviour)
// it generates and assembles the program, then either captures its trace
// and replays trials on the trace VM (table4) or executes trials on the
// interpreter under the assertion monitor (table4-checked).
func (c *campaigns) layers(b *bench, tr *tracer, m map[string]float64) error {
	var (
		lookups, misses, flushes, trials float64
		rekeys, riTrials                 float64
		captures, fallbacks, ops         float64
		bodyFrac                         []float64
		replay, cpuTime                  time.Duration
		replayed, instret, walks         float64
		walkTime, xlateTime              time.Duration
		walkN, xlateN, violations        float64
	)
	for _, d := range c.designs {
		cfg := c.config(d, 0)
		for _, v := range model.Enumerate() {
			for _, mapped := range []bool{true, false} {
				prog, err := program(cfg, v, mapped, tr)
				if err != nil {
					return err
				}
				if c.checked {
					r, err := newRig(cfg, prog, false)
					if err != nil {
						return err
					}
					var batch time.Duration
					for i := 0; i < cpuTrials; i++ {
						w0 := r.pt.Walks
						t0 := time.Now()
						_, err := r.runFull(trialSeed(i))
						batch += time.Since(t0)
						var viol *assert.Violation
						switch {
						case errors.As(err, &viol):
							violations++
						case err != nil:
							return fmt.Errorf("%s %s: %w", d, v, err)
						}
						st := r.tlb.Stats()
						lookups, misses, flushes = lookups+float64(st.Lookups), misses+float64(st.Misses), flushes+float64(st.Flushes)
						instret += float64(r.mach.Instret())
						walks += float64(r.pt.Walks - w0)
						trials++
					}
					cpuTime += batch
					tr.record("cpu.Machine.Run", -1, 0, time.Now().Add(-batch), batch)
					dw, nw, err := timeWalks(r.pt, prog)
					if err != nil {
						return err
					}
					walkTime, walkN = walkTime+dw, walkN+nw
					dx, nx, nv := timeTranslates(r.tlb, prog)
					xlateTime, xlateN, violations = xlateTime+dx, xlateN+nx, violations+nv
					continue
				}
				r, err := newRig(cfg, prog, true)
				if err != nil {
					return err
				}
				sp := tr.begin("trace.Capture", -1, 0)
				trc, err := trace.Capture(r.mach, secbench.DefaultTrialFuel)
				tr.end(sp)
				captures++
				if errors.Is(err, trace.ErrUnrepresentable) {
					fallbacks++
					continue
				}
				if err != nil {
					return fmt.Errorf("%s %s: capture: %w", d, v, err)
				}
				ops += float64(len(trc.Ops))
				prefix := trace.SplitPrefix(trc, coreCfg)
				if prefix != nil {
					bodyFrac = append(bodyFrac, float64(len(trc.Ops)-prefix.OpStart)/float64(len(trc.Ops)))
				} else {
					bodyFrac = append(bodyFrac, 1)
				}
				vm := trace.NewVM(r.tlb, nil, prog, coreCfg)
				replayOne := func(vm *trace.VM, t tlb.TLB, i int) (time.Duration, tlb.Stats, error) {
					resetTrial(t, trialSeed(i))
					t0 := time.Now()
					var err error
					if i == 0 || prefix == nil {
						_, err = vm.Run(trc, secbench.DefaultTrialFuel)
					} else {
						_, err = vm.RunBody(trc, secbench.DefaultTrialFuel, prefix)
					}
					return time.Since(t0), t.Stats(), err
				}
				var batch time.Duration
				var riFlushes float64
				for i := 0; i < replayTrials; i++ {
					dt, st, err := replayOne(vm, r.tlb, i)
					if err != nil {
						return fmt.Errorf("%s %s: replay: %w", d, v, err)
					}
					batch += dt
					lookups, misses, flushes = lookups+float64(st.Lookups), misses+float64(st.Misses), flushes+float64(st.Flushes)
					riFlushes += float64(st.Flushes)
					trials++
				}
				replay += batch
				replayed += replayTrials
				tr.record("trace.VM.Run", -1, 0, time.Now().Add(-batch), batch)
				if d == secbench.DesignRI {
					// The same trials on a twin that never re-keys: the
					// extra flushes are the re-keys.
					cfg0 := cfg
					cfg0.RekeyFills = 0
					r0, err := newRig(cfg0, prog, true)
					if err != nil {
						return err
					}
					vm0 := trace.NewVM(r0.tlb, nil, prog, coreCfg)
					for i := 0; i < replayTrials; i++ {
						_, st, err := replayOne(vm0, r0.tlb, i)
						if err != nil {
							return err
						}
						riFlushes -= float64(st.Flushes)
					}
					rekeys += riFlushes
					riTrials += replayTrials
				}
			}
		}
	}
	aggs := tr.aggregate()
	m["secbench.generate_us"] = tr.meanSelf(aggs, "secbench.Generate", time.Microsecond)
	m["asm.assemble_us"] = tr.meanSelf(aggs, "asm.Assemble", time.Microsecond)
	for _, d := range c.designs {
		code := designCode(d)
		m["secbench."+code+".campaign_ms"] = tr.meanSelf(aggs, "secbench.RunCampaign/"+code, time.Millisecond)
	}
	m["tlb.miss_frac"] = misses / lookups
	m["tlb.flushes_per_trial"] = flushes / trials
	if c.checked {
		m["cpu.trial_ns"] = float64(cpuTime.Nanoseconds()) / trials
		m["cpu.ns_per_instr"] = float64(cpuTime.Nanoseconds()) / instret
		m["ptw.walks_per_trial"] = walks / trials
		m["ptw.walk_ns"] = float64(walkTime.Nanoseconds()) / walkN
		m["assert.translate_ns"] = float64(xlateTime.Nanoseconds()) / xlateN
		m["assert.violations"] = violations
		if violations > 0 {
			b.fail("%v assertion violations in the checked decomposition", violations)
		}
		tr.record("ptw.PageTables.Walk", -1, 0, time.Now().Add(-walkTime), walkTime)
		tr.record("assert.Monitor.Translate", -1, 0, time.Now().Add(-xlateTime), xlateTime)
	} else {
		m["trace.capture_us"] = tr.meanSelf(aggs, "trace.Capture", time.Microsecond)
		m["trace.ops_per_trace"] = ops / (captures - fallbacks)
		m["trace.fallback_frac"] = fallbacks / captures
		m["trace.replay_ns"] = float64(replay.Nanoseconds()) / replayed
		m["trace.body_frac"] = mean(bodyFrac)
		m["tlb.rekeys_per_trial"] = rekeys / riTrials
	}
	// The bootstrap CI of each vulnerability's counts from the last op,
	// under seeds no campaign used, so every call misses the CI cache.
	for i, cn := range c.counts {
		sp := tr.begin("capacity.BootstrapCI", -1, 0)
		cn.BootstrapCI(300, 0.95, uint64(b.opts.seed)<<32|uint64(i)|1<<31)
		tr.end(sp)
	}
	m["capacity.bootstrap_ms"] = tr.meanSelf(tr.aggregate(), "capacity.BootstrapCI", time.Millisecond)
	return nil
}

// timeWalks times PageTables.Walk over a program's data pages in both
// address spaces.
func timeWalks(pt *ptw.PageTables, prog *isa.Program) (time.Duration, float64, error) {
	t0 := time.Now()
	n := 0
	for rep := 0; rep < loopReps; rep++ {
		for _, asid := range []tlb.ASID{attackerASID, victimASID} {
			for _, vpn := range prog.DataPages {
				if _, _, err := pt.Walk(asid, tlb.VPN(vpn)); err != nil {
					return 0, 0, err
				}
				n++
			}
		}
	}
	return time.Since(t0), float64(n), nil
}

// timeTranslates times Translate through the assertion monitor over a
// program's data pages, from a flushed TLB, counting violations.
func timeTranslates(t tlb.TLB, prog *isa.Program) (time.Duration, float64, float64) {
	t.FlushAll()
	var violations float64
	n := 0
	t0 := time.Now()
	for rep := 0; rep < loopReps; rep++ {
		for _, asid := range []tlb.ASID{attackerASID, victimASID} {
			for _, vpn := range prog.DataPages {
				if _, err := t.Translate(asid, tlb.VPN(vpn)); err != nil {
					violations++
				}
				n++
			}
		}
	}
	return time.Since(t0), float64(n), violations
}

// layers decomposes a Figure 7 op: every cell of a sweep in sweep order
// under a seed no op used (the first cell of each workload mix captures
// its access stream, the rest replay it), the generators stepped directly,
// the first RSA trace build, and the workload fingerprinting each cell
// repeats.
func (s *sweeps) layers(b *bench, tr *tracer, m map[string]float64) error {
	seed := s.seedBase + 1<<15
	seen := map[string]bool{}
	// Each cell fingerprints the RSA trace, and a co-run cell its spec
	// generator too.
	var rsaCalls, specCalls float64
	for _, d := range []perf.Design{perf.SA, perf.SP, perf.RF} {
		for _, secure := range []bool{false, true} {
			for _, g := range perf.Geometries() {
				if g.Label == "1E" && d != perf.SA {
					continue
				}
				for _, spec := range append([]workload.Generator{nil}, workload.SpecSuite()...) {
					mix := "alone"
					if spec != nil {
						mix = spec.Name()
						specCalls++
					}
					rsaCalls++
					name := "perf.Cell.warm"
					if !seen[mix] {
						name, seen[mix] = "perf.Cell.cold", true
					}
					sp := tr.begin(name, -1, 0)
					_, err := perf.Cell(d, g, spec, secure, 50, seed)
					tr.end(sp)
					if err != nil {
						return err
					}
				}
			}
		}
	}
	sp := tr.begin("victim.RSA", -1, 0)
	rsa, err := perf.RSATrace(50, seed)
	tr.end(sp)
	if err != nil {
		return err
	}
	gens := append([]workload.Generator{rsa}, workload.SpecSuite()...)
	rng := rand.New(rand.NewSource(int64(seed)))
	const steps = 200_000
	var stepTime time.Duration
	for _, g := range gens {
		g.Reset()
		t0 := time.Now()
		for i := 0; i < steps; i++ {
			g.Step(rng)
		}
		stepTime += time.Since(t0)
	}
	tr.record("workload.Generator.Step", -1, 0, time.Now().Add(-stepTime), stepTime)
	// Time one call per generator and weight them by the op's calls.
	var fpTime time.Duration
	perMix := map[string]time.Duration{}
	for _, g := range gens {
		fp := g.(workload.Fingerprinter)
		t0 := time.Now()
		for i := 0; i < loopReps; i++ {
			fp.WorkloadFingerprint()
		}
		perMix[g.Name()] = time.Since(t0) / loopReps
		fpTime += time.Since(t0)
	}
	tr.record("fingerprint.WorkloadFingerprint", -1, 0, time.Now().Add(-fpTime), fpTime)
	var spec float64
	for n, d := range perMix {
		if n != "RSA" {
			spec += float64(d)
		}
	}
	avgSpec := spec / float64(len(perMix)-1)
	perOp := rsaCalls*float64(perMix["RSA"]) + specCalls*avgSpec
	aggs := tr.aggregate()
	m["perf.cell_cold_ms"] = tr.meanSelf(aggs, "perf.Cell.cold", time.Millisecond)
	m["perf.cell_warm_ms"] = tr.meanSelf(aggs, "perf.Cell.warm", time.Millisecond)
	m["victim.rsa_ms"] = tr.meanSelf(aggs, "victim.RSA", time.Millisecond)
	m["workload.step_ns"] = float64(stepTime.Nanoseconds()) / float64(steps*len(gens))
	m["fingerprint.workload_us"] = perOp / float64(time.Microsecond)
	return nil
}

// flatWalker is an identity mapping with a three-level walk's cost.
var flatWalker = tlb.WalkerFunc(func(_ tlb.ASID, vpn tlb.VPN) (tlb.PPN, uint64, error) {
	return tlb.PPN(vpn), 60, nil
})

// tlbLadder times Translate on every design, built by its public
// constructor over the flat walker, on a hit-only working set (a quarter
// of the entries, spread over the sets: it fits every design, and RI's 16
// fills between re-keys are never reached) and a miss-only one (twice a
// set's ways in one set, or four times the entries under RI's keyed index;
// RI re-keys every 16 fills, as in campaigns). Stats must confirm that the
// hit runs never missed and the miss runs never hit.
func tlbLadder(tr *tracer, m map[string]float64) error {
	const iters = 100_000
	for _, d := range secbench.AllDesigns() {
		cfg := secbench.DefaultConfig(d)
		code := designCode(d)
		sets := cfg.Entries / cfg.Ways
		hit := make([]tlb.VPN, cfg.Entries/4)
		for i := range hit {
			hit[i] = tlb.VPN(0x100 + i)
		}
		nmiss := 2 * cfg.Ways
		if d == secbench.DesignRI {
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
			var reps []float64
			for rep := 0; rep < 5; rep++ {
				t, err := cfg.NewTLB(flatWalker, cfg.BaseSeed)
				if err != nil {
					return err
				}
				for _, p := range rung.pages { // warm
					t.Translate(attackerASID, p)
				}
				t.ResetStats()
				n := len(rung.pages)
				t0 := time.Now()
				for i := 0; i < iters; i++ {
					if _, err := t.Translate(attackerASID, rung.pages[i%n]); err != nil {
						return err
					}
				}
				dt := time.Since(t0)
				st := t.Stats()
				if rung.kind == "hit" && st.Misses != 0 || rung.kind == "miss" && st.Hits != 0 {
					return fmt.Errorf("tlb %s %s rung: %d hits, %d misses", code, rung.kind, st.Hits, st.Misses)
				}
				tr.record("tlb.Translate."+rung.kind+"/"+code, -1, 0, t0, dt)
				reps = append(reps, float64(dt.Nanoseconds())/iters)
			}
			sort.Float64s(reps)
			m["tlb."+code+"."+rung.kind+"_ns"] = reps[len(reps)/2]
		}
	}
	return nil
}
