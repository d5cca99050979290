package main

import (
	"context"
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"

	"securetlb/internal/capacity"
	"securetlb/internal/model"
	"securetlb/internal/perf"
	"securetlb/internal/secbench"
)

// pinned holds the SHA-256 of each warm-up op's rendered tables: the
// default inputs (500 trials per behaviour; Figure 7 seed 1) rendered
// exactly as secbench, perfbench and tlbserved print them. A change that
// moves any simulated statistic fails this check.
var pinned = map[string]string{
	"table4":         "871ddc4d613b018048e43ad2811d3cf474b842c23311387ec4e255c31f472772",
	"table4-checked": "dae7b4a9b6fd75d4bdd1c1e46f0d2869fc51ff1859d62574f9e6507bd0d2b93b",
	"fig7":           "49063038f6452194b7ed259d0b7677853e711b40b006578846432a823b649c5b",
	"serve/secbench": "dae7b4a9b6fd75d4bdd1c1e46f0d2869fc51ff1859d62574f9e6507bd0d2b93b",
	"serve/perf":     "b9a35993a4e5d510345e22f34edad91a0a01c2fc4c44dc45f3eebd29aa1deab6",
}

// fig7InstrDigest pins the per-row instruction totals of one default
// Figure 7 op, which do not depend on the Figure 7 seed.
const fig7InstrDigest = "245ae924c31263aa2f3fdadae8de873c56ca5cfc89eece1896279795cfaa4c36"

// expectDefended is each design's Table 4 verdict: how many of the 24
// vulnerability types it defends.
var expectDefended = map[secbench.Design]int{
	secbench.DesignSA: 10,
	secbench.DesignSP: 14,
	secbench.DesignRF: 24,
	secbench.DesignFA: 18,
	secbench.DesignRI: 18,
	secbench.DesignFS: 18,
}

var opSeq atomic.Int64

// rssOps is the op after which a closed loop reads the process's peak RSS.
// Every closed loop runs at least this many ops, so peak_rss_mb does not
// depend on how many ops fit in the window (a faster program would
// otherwise run more ops and read a higher peak).
const rssOps = 10

// closedLoop runs op back to back until d of wall time has elapsed and at
// least rssOps ops are done. Each op's latency is a cold sample: every op
// starts an execution. Op latencies and the window's length are stopwatch
// times.
func closedLoop(d time.Duration, tr *tracer, op func(w *window, root int, id int64) error) (*window, error) {
	w := &window{}
	start := time.Now()
	whole := startWatch()
	for time.Since(start) < d || w.attempted < rssOps {
		id := opSeq.Add(1)
		root := tr.begin("op", -1, id)
		sw := startWatch()
		w.attempted++
		if err := op(w, root, id); err != nil {
			return nil, err
		}
		w.cold = append(w.cold, float64(sw.elapsed())/float64(time.Millisecond))
		tr.end(root)
		if w.attempted == rssOps {
			w.rssMB = peakRSSMB()
		}
	}
	w.wall = whole.elapsed()
	w.stolen = time.Since(start) - w.wall
	return w, nil
}

// seedOffset spreads workload seeds over a narrow band of op sizes, so
// every seed gives different inputs but the same amount of work.
func seedOffset(seed int64) int { return int(uint64(seed) % 16) }

// trialBand is the width of the band of trial counts the campaign ops
// draw from: 2^8, as opTrials reverses 8 bits.
const trialBand = 256

// campaigns is the table4 workload (all six designs, trace replay) and,
// with checked set, table4-checked (the paper trio under the assertion
// monitor with trace replay off, as `secbench -invariants -no-trace` runs
// it, so every trial executes on the cpu interpreter).
type campaigns struct {
	checked bool
	designs []secbench.Design
	// next is the index of the next op; see opTrials. The trial count is
	// what a user varies; BaseSeed stays fixed, because each new one adds
	// 48 replay-template keys per design, and two six-design ops would fill
	// the 512-entry template cache and send every later campaign down the
	// one-off capture path no user takes.
	next        int
	firstTrials int
	// perTrial is Σ over a design's 48 programs of the instructions one
	// trial retires (fixed per program), to convert trials to instructions.
	perTrial map[secbench.Design]uint64
	// counts holds the last op's per-vulnerability counts (bootstrap input).
	counts []capacity.Counts
}

func (c *campaigns) name() string {
	if c.checked {
		return "table4-checked"
	}
	return "table4"
}

func (c *campaigns) config(d secbench.Design, trials int) secbench.Config {
	cfg := secbench.DefaultConfig(d)
	cfg.Trials = trials
	cfg.Invariants = c.checked
	cfg.DisableTrace = c.checked
	return cfg
}

// opTrials is op k's trial count per behaviour: firstTrials plus k's bit
// reversal within its block of trialBand ops. The first n ops of a process
// cover the band evenly for any n, so the mix of op sizes, and with it the
// op latency, does not depend on how many ops fit in a window; and no two
// ops share a count (a repeat would make the 300-resample bootstrap a
// cache hit).
func (c *campaigns) opTrials(k int) int {
	return c.firstTrials + k/trialBand*trialBand + int(bits.Reverse8(uint8(k%trialBand)))
}

// runOp runs one campaign per design, as `secbench -design full` (or
// `-design all -invariants -no-trace`) does, on the shared pool, checks each
// design's verdicts and returns the rendered tables.
func (c *campaigns) runOp(b *bench, w *window, trials int, tr *tracer, parent int, op int64) (string, error) {
	var out strings.Builder
	for _, d := range c.designs {
		cfg := c.config(d, trials)
		sp := tr.begin("secbench.RunCampaign/"+designCode(d), parent, op)
		rep, err := cfg.RunCampaign(context.Background(), model.Enumerate(), secbench.RunOptions{Pool: b.pool})
		tr.end(sp)
		if err != nil {
			return "", fmt.Errorf("%s campaign: %w", d, err)
		}
		if len(rep.Quarantined) > 0 {
			w.fail("%s at %d trials: %d quarantined trials", d, trials, len(rep.Quarantined))
		}
		if got, want := secbench.DefendedCount(rep.Results), expectDefended[d]; got != want || len(rep.Results) != 24 {
			w.fail("%s at %d trials: defends %d/%d, want %d/24", d, trials, got, len(rep.Results), want)
		}
		c.counts = c.counts[:0]
		for _, r := range rep.Results {
			c.counts = append(c.counts, r.Counts)
		}
		w.trials += 2 * trials * len(rep.Results)
		out.WriteString(secbench.FormatCampaign(d, trials, b.pool.Size(), false, rep))
	}
	return out.String(), nil
}

func (c *campaigns) setup(b *bench, tr *tracer) error {
	c.designs = secbench.AllDesigns()
	if c.checked {
		c.designs = []secbench.Design{secbench.DesignSA, secbench.DesignSP, secbench.DesignRF}
	}
	c.firstTrials = 501 + seedOffset(b.opts.seed)
	w := &window{}
	out, err := c.runOp(b, w, 500, tr, -1, 0)
	if err != nil {
		return err
	}
	b.checks = append(b.checks, w.mismatches...)
	checkPinned(b, c.name(), out)
	return nil
}

// checkPinned compares a warm-up op's rendered output with its pin.
func checkPinned(b *bench, key, out string) {
	if got := digest(out); got != pinned[key] {
		b.fail("%s warm-up output digest %s, pinned %s", key, got, pinned[key])
	}
}

func (c *campaigns) measure(b *bench, d time.Duration, tr *tracer) (*window, error) {
	var trials []int
	w, err := closedLoop(d, tr, func(w *window, root int, id int64) error {
		n := c.opTrials(c.next)
		c.next++
		trials = append(trials, n)
		_, err := c.runOp(b, w, n, tr, root, id)
		return err
	})
	if err != nil {
		return nil, err
	}
	if c.perTrial == nil {
		if c.perTrial, err = instructionsPerTrial(c.designs, c.checked); err != nil {
			return nil, err
		}
	}
	for _, n := range trials {
		for _, d := range c.designs {
			w.instr += float64(n) * float64(c.perTrial[d])
		}
	}
	return w, nil
}

func (c *campaigns) check(*bench) []string { return nil }
func (c *campaigns) close()                {}

// sweeps is the fig7 workload: back-to-back default perfbench sweeps (the
// paper's SA/SP/RF × {RSA, SecRSA} at 50 decryptions), one Figure 7 seed
// per op.
type sweeps struct {
	next     int
	seedBase uint64
}

// fig7Rows is how many rows one design's sweep has: SA has the 1-entry
// configuration the others lack.
var fig7Rows = map[perf.Design]int{perf.SA: 35, perf.SP: 30, perf.RF: 30}

// runOp runs one default perfbench sweep, checks its row counts and
// per-row instruction totals, and returns the rendered tables.
func (s *sweeps) runOp(b *bench, w *window, seed uint64, tr *tracer, parent int, op int64) (string, error) {
	var out strings.Builder
	var instrs []uint64
	for _, d := range []perf.Design{perf.SA, perf.SP, perf.RF} {
		for _, secure := range []bool{false, true} {
			sp := tr.begin("perf.Figure7Pool", parent, op)
			rows, err := perf.Figure7Pool(context.Background(), d, secure, 50, seed, b.pool, nil)
			tr.end(sp)
			if err != nil {
				return "", fmt.Errorf("figure 7 %s: %w", d, err)
			}
			if len(rows) != fig7Rows[d] {
				w.fail("figure 7 %s secure=%v seed %d: %d rows, want %d", d, secure, seed, len(rows), fig7Rows[d])
			}
			for _, r := range rows {
				instrs = append(instrs, r.Metrics.Instructions)
				w.instr += float64(r.Metrics.Instructions)
			}
			out.WriteString(perf.SweepHeader(d, secure, 50, b.pool.Size()))
			out.WriteString(perf.FormatRows(rows))
		}
	}
	if got := digest(fmt.Sprint(instrs)); got != fig7InstrDigest {
		w.fail("figure 7 seed %d: row instruction totals digest %s, pinned %s", seed, got, fig7InstrDigest)
	}
	return out.String(), nil
}

func (s *sweeps) setup(b *bench, tr *tracer) error {
	s.seedBase = uint64(b.opts.seed)<<16 + 2
	w := &window{}
	out, err := s.runOp(b, w, 1, tr, -1, 0)
	if err != nil {
		return err
	}
	b.checks = append(b.checks, w.mismatches...)
	checkPinned(b, "fig7", out)
	return nil
}

func (s *sweeps) measure(b *bench, d time.Duration, tr *tracer) (*window, error) {
	return closedLoop(d, tr, func(w *window, root int, id int64) error {
		seed := s.seedBase + uint64(s.next)
		s.next++
		_, err := s.runOp(b, w, seed, tr, root, id)
		return err
	})
}

func (s *sweeps) check(*bench) []string { return nil }
func (s *sweeps) close()                {}

func designCode(d secbench.Design) string {
	return strings.ToLower(strings.TrimSuffix(d.String(), " TLB"))
}
