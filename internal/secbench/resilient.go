package secbench

// This file is the campaign driver, RunCampaign: every vulnerability's trials
// sharded over one bounded worker pool, with context-aware campaigns that
// stop admitting work on cancellation and drain cleanly, a per-trial fuel
// watchdog, panic quarantine that lets a campaign survive a single bad trial,
// and checkpoint/resume keyed by the assembled program's cache identity plus
// the trial range.
//
// The determinism contract extends the one in runner.go: because every
// trial's seed is derived from its index alone (trialSeed), excluding a
// quarantined trial changes nothing about the other trials, so the
// statistics over the surviving trials are bit-identical to a one-worker run
// over exactly those trial indices. Counts denominators are survivor
// counts, keeping the empirical probabilities well-defined under exclusion.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"securetlb/internal/assert"
	"securetlb/internal/checkpoint"
	"securetlb/internal/cpu"
	"securetlb/internal/faultinject"
	"securetlb/internal/model"
	"securetlb/internal/pool"
)

// ErrBenchFailed reports that a benchmark program halted with a non-zero
// exit code — its own internal consistency check (the `fail` path) fired.
var ErrBenchFailed = errors.New("secbench: benchmark signalled failure")

// DefaultTrialFuel is the per-trial instruction budget when Config.MaxInstr
// is zero. The generated benchmarks execute a few hundred instructions; a
// million is six orders of safety margin while still bounding a runaway
// trial to well under a second.
const DefaultTrialFuel = 1_000_000

// fuel resolves the per-trial instruction budget.
func (c Config) fuel() uint64 {
	if c.MaxInstr > 0 {
		return c.MaxInstr
	}
	return DefaultTrialFuel
}

// Quarantined records one trial excluded from a campaign's statistics. The
// seed and trial index are enough to replay the trial in isolation (see
// Config.ReplayTrial) when triaging.
type Quarantined struct {
	Design      string `json:"design"`
	Strategy    string `json:"strategy"`
	Pattern     string `json:"pattern"`
	Observation string `json:"observation"`
	Mapped      bool   `json:"mapped"`
	Trial       int    `json:"trial"`
	Seed        uint64 `json:"seed"`
	// Kind is the failure class: "invariant", "panic", "fuel-exhausted",
	// "fault" or "bench-failed".
	Kind   string `json:"kind"`
	Reason string `json:"reason"`
}

// classifyTrialErr maps a trial error to its quarantine kind. Only failures
// attributable to the trial itself are quarantinable; anything else (a
// generator or assembly error, an out-of-memory clone, ...) is an
// infrastructure fault that must abort the campaign rather than silently
// shrink its sample.
func classifyTrialErr(err error) (kind string, quarantinable bool) {
	var pe *pool.PanicError
	switch {
	case errors.As(err, &pe):
		return "panic", true
	// An assertion violation reaches the runner wrapped in a cpu.FaultError
	// (the core treats a failed translation as a fault), so this case must
	// precede the generic cpu.ErrFault one to keep the kind precise. The
	// kind string stays "invariant" for checkpoint/report compatibility.
	case errors.Is(err, assert.ErrViolation):
		return "invariant", true
	case errors.Is(err, cpu.ErrFuelExhausted):
		return "fuel-exhausted", true
	case errors.Is(err, cpu.ErrFault):
		return "fault", true
	case errors.Is(err, ErrBenchFailed):
		return "bench-failed", true
	}
	return "", false
}

// unitCounts is the outcome of one checkpointable work unit — all trials of
// one (vulnerability, behaviour) pair. It is also the unit value stored in
// the checkpoint file, so its JSON shape is part of the checkpoint format.
type unitCounts struct {
	Misses      int           `json:"misses"`
	Survivors   int           `json:"survivors"`
	Quarantined []Quarantined `json:"quarantined,omitempty"`
}

// unitKey is the checkpoint key for one work unit: the program-cache
// identity (everything the assembled benchmark depends on) plus the trial
// range it covers. Two campaigns sharing a key are guaranteed bit-identical
// results for the unit, which is exactly when resuming is sound.
func (c Config) unitKey(v model.Vulnerability, mapped bool) string {
	return fmt.Sprintf("%+v|trials[0,%d)", c.progKeyFor(v, mapped), c.Trials)
}

// Fingerprint identifies the whole campaign configuration for checkpoint
// validation: everything that influences any unit's results or keys.
func (c Config) Fingerprint(extended bool) string {
	return fmt.Sprintf("secbench/v2|design=%s|geom=%d/%d/%d|trials=%d|seed=%#x|params=%+v|memlat=%d|maxinstr=%d|extended=%v|inv=%v|fault=%s:%#x",
		c.Design, c.Entries, c.Ways, c.VictimWays, c.Trials, c.BaseSeed,
		c.Params, c.MemLatency, c.fuel(), extended, c.Invariants, c.FaultSite, c.FaultSeed)
}

// guardedTrial runs one trial on cp through the campaign's safety net: a
// non-empty fault site is armed on cp's machine beneath any invariant checker
// (the detector must observe the fault, not intercept its injection), run
// executes under pool.Safely so a panic becomes an error, and the injector is
// disarmed afterwards. A failed trial's error comes back with its quarantine
// kind; kind "" marks an infrastructure failure (an arming error, or an
// error no trial can cause) that must abort the campaign rather than
// silently shrink its sample. inj is the armed injector, nil without a site.
func (cp *campaign) guardedTrial(site faultinject.Site, faultSeed uint64, run func() error) (inj *faultinject.Injector, kind string, err error) {
	if site != "" {
		inj = faultinject.New(site, faultSeed)
		if err := inj.Arm(assert.Unwrap(cp.machine.TLB), cp.machine.PT, cp.machine.Mem); err != nil {
			return nil, "", err
		}
		defer inj.Disarm()
	}
	if err = pool.Safely(run); err != nil {
		kind, _ = classifyTrialErr(err)
	}
	return inj, kind, err
}

// runTrials is the campaign's one trial loop: trials [lo, hi) of one
// behaviour on cp, each under guardedTrial, quarantining per-trial failures
// and counting misses and survivors. It returns early with the context error
// on cancellation (the partial unit is discarded by the caller) and with the
// original error on infrastructure failure.
//
// A replay campaign replays the whole trace on the shard's first trial and
// on the trial after any failed one (a failure can stop the VM anywhere,
// even inside the prefix), and only the trace body otherwise.
func (c Config) runTrials(ctx context.Context, cp *campaign, v model.Vulnerability, mapped bool, lo, hi int) (unitCounts, error) {
	var u unitCounts
	// Trial-invariant values hoisted out of the loop, so no trial copies the
	// Config.
	base, fuel, inject := c.BaseSeed, c.fuel(), c.Inject
	site, faultBase := c.FaultSite, c.FaultSeed
	primed := false // cp's VM completed the previous trial
	for trial := lo; trial < hi; trial++ {
		if err := ctx.Err(); err != nil {
			return u, err
		}
		seed := trialSeedFor(base, trial, mapped)
		var miss bool
		_, kind, err := cp.guardedTrial(site, faultSeedFor(faultBase, trial, mapped), func() error {
			f := fuel
			if inject != nil {
				if g := inject(v, mapped, trial); g != 0 {
					f = g
				}
			}
			var terr error
			miss, terr = cp.runTrial(seed, f, primed)
			return terr
		})
		primed = err == nil
		if err != nil {
			if kind == "" {
				return u, fmt.Errorf("%s (mapped=%v, trial %d): %w", v, mapped, trial, err)
			}
			u.Quarantined = append(u.Quarantined, Quarantined{
				Design:      c.Design.String(),
				Strategy:    v.Strategy,
				Pattern:     v.Pattern.String(),
				Observation: v.Observation.String(),
				Mapped:      mapped,
				Trial:       trial,
				Seed:        seed,
				Kind:        kind,
				Reason:      err.Error(),
			})
			continue
		}
		u.Survivors++
		if miss {
			u.Misses++
		}
	}
	return u, nil
}

// runUnit executes one (vulnerability, behaviour) unit trial-sharded over p:
// the template machine runs the first shard itself and clones (taken
// sequentially — Clone mutates the source's copy-on-write state) serve the
// rest. The per-trial seed contract (trialSeed) makes the split invisible in
// the results. Per-trial failures land in the unit's quarantine list, and
// cancellation stops admitting shards and drains the started ones.
func (c Config) runUnit(ctx context.Context, p *pool.Pool, v model.Vulnerability, mapped bool) (unitCounts, error) {
	var unit unitCounts
	var template *campaign
	var err error
	// Build the template under a worker slot: assembly and page-table setup
	// is real work, and gating it keeps a campaign's concurrency at exactly
	// the pool bound.
	if rerr := p.RunCtx(ctx, func() { template, err = c.newCampaign(v, mapped) }); rerr != nil {
		return unit, rerr
	}
	if err != nil {
		return unit, err
	}
	shards := pool.Shards(c.Trials, p.Size())
	camps := make([]*campaign, len(shards))
	for i := range shards {
		if i == 0 {
			camps[i] = template
			continue
		}
		if camps[i], err = template.clone(); err != nil {
			return unit, err
		}
	}
	units := make([]unitCounts, len(shards))
	errsBy := make([]error, len(shards))
	run := func(i int) {
		units[i], errsBy[i] = c.runTrials(ctx, camps[i], v, mapped, shards[i].Lo, shards[i].Hi)
	}
	// A lone shard (a one-worker pool) runs on this goroutine: a fresh
	// goroutine per unit would regrow its stack for every unit's trial loop.
	var ferr error
	if len(shards) == 1 {
		ferr = p.RunCtx(ctx, func() { run(0) })
	} else {
		ferr = p.ForEachCtx(ctx, len(shards), run)
	}
	if ferr != nil {
		return unit, ferr
	}
	// Aggregate in shard order so the quarantine list is ordered by trial
	// index regardless of scheduling.
	for i := range shards {
		if errsBy[i] != nil {
			return unit, errsBy[i]
		}
		unit.Misses += units[i].Misses
		unit.Survivors += units[i].Survivors
		unit.Quarantined = append(unit.Quarantined, units[i].Quarantined...)
	}
	for _, cp := range camps {
		cp.release()
	}
	return unit, nil
}

// finalizeCtx derives the probability, capacity and CI columns from the
// counts, with a cancellable bootstrap.
func (c Config) finalizeCtx(ctx context.Context, res *Result) error {
	res.P1, res.P2 = res.Counts.Probabilities()
	res.C = res.Counts.Capacity()
	var err error
	res.CILow, res.CIHigh, err = res.Counts.BootstrapCICtx(ctx, 300, 0.95, c.BaseSeed)
	return err
}

// runVulnerability runs one vulnerability's two units, consulting and
// feeding the checkpoint (nil-safe) around each.
func (c Config) runVulnerability(ctx context.Context, p *pool.Pool, v model.Vulnerability, ck *checkpoint.File) (Result, []Quarantined, error) {
	res := Result{Vulnerability: v}
	var quarantined []Quarantined
	for _, mapped := range []bool{true, false} {
		var key string
		if ck != nil {
			// Formatting the key costs as much as a short unit's trials, so
			// runs without a checkpoint skip it.
			key = c.unitKey(v, mapped)
		}
		var unit unitCounts
		hit, err := ck.Lookup(key, &unit)
		if err != nil {
			return res, nil, err
		}
		if !hit {
			if unit, err = c.runUnit(ctx, p, v, mapped); err != nil {
				return res, nil, err
			}
			if err := ck.Record(key, unit); err != nil {
				return res, nil, err
			}
		}
		if mapped {
			res.Counts.Mapped, res.Counts.MappedMisses = unit.Survivors, unit.Misses
		} else {
			res.Counts.NotMapped, res.Counts.NotMappedMisses = unit.Survivors, unit.Misses
		}
		quarantined = append(quarantined, unit.Quarantined...)
	}
	if err := c.finalizeCtx(ctx, &res); err != nil {
		return res, nil, err
	}
	return res, quarantined, nil
}

// RunOptions parameterises a resilient campaign run.
type RunOptions struct {
	// Parallelism bounds the worker pool (<= 0 selects GOMAXPROCS).
	Parallelism int
	// Pool, when non-nil, supplies an existing worker pool instead of a
	// fresh one sized by Parallelism — how the serving daemon bounds the
	// leaf concurrency of all in-flight jobs together rather than per
	// campaign.
	Pool *pool.Pool
	// Checkpoint, when non-nil, is consulted before each work unit and fed
	// each completed one; a final flush happens on every exit path.
	Checkpoint *checkpoint.File
}

// pool resolves the worker pool a run executes on.
func (o RunOptions) pool() *pool.Pool {
	if o.Pool != nil {
		return o.Pool
	}
	return pool.New(o.Parallelism)
}

// CampaignReport is the outcome of a resilient campaign: one Result per
// completed vulnerability (statistics over surviving trials) plus every
// quarantined trial, ordered by vulnerability, then behaviour (mapped
// first), then trial index.
type CampaignReport struct {
	Results     []Result
	Quarantined []Quarantined
}

// RunCampaign executes the campaign over vulns: every vulnerability's
// mapped and not-mapped trials, sharded over the worker pool. Results are
// bit-identical at every pool size, in vulns order; at Parallelism 1 each
// behaviour runs as one shard on the template machine. Per-trial failures
// (panics, fuel exhaustion, faults, benchmark-signalled failures) are
// quarantined and the campaign completes; infrastructure failures abort it.
//
// On context cancellation no new work units are admitted, started shards
// drain, and RunCampaign returns the completed vulnerabilities (in vulns
// order, incomplete ones compacted away) together with the context error —
// a partial report the CLIs print before suggesting -resume.
func (c Config) RunCampaign(ctx context.Context, vulns []model.Vulnerability, opts RunOptions) (CampaignReport, error) {
	p := opts.pool()
	ck := opts.Checkpoint
	results := make([]Result, len(vulns))
	quars := make([][]Quarantined, len(vulns))
	errs := make([]error, len(vulns))
	var wg sync.WaitGroup
	for i, v := range vulns {
		wg.Add(1)
		// One lightweight orchestrator per vulnerability; all real work
		// (template builds, trial shards) runs under p's worker bound, so
		// the campaign's leaf concurrency is exactly the pool size.
		go func() {
			defer wg.Done()
			results[i], quars[i], errs[i] = c.runVulnerability(ctx, p, v, ck)
		}()
	}
	wg.Wait()
	var report CampaignReport
	var ctxErr error
	for i := range vulns {
		switch {
		case errs[i] == nil:
			report.Results = append(report.Results, results[i])
			report.Quarantined = append(report.Quarantined, quars[i]...)
		case errors.Is(errs[i], context.Canceled) || errors.Is(errs[i], context.DeadlineExceeded):
			ctxErr = errs[i]
		default:
			ck.Flush()
			return report, errs[i]
		}
	}
	if err := ck.Flush(); err != nil {
		return report, err
	}
	return report, ctxErr
}

// RunAllCtx runs the campaign for the 24 base vulnerabilities, in Table 2
// order.
func (c Config) RunAllCtx(ctx context.Context, opts RunOptions) (CampaignReport, error) {
	return c.RunCampaign(ctx, model.Enumerate(), opts)
}

// RunAllExtendedCtx runs the campaign for the additional Appendix B
// vulnerabilities (targeted invalidation and variable-timing flushes).
func (c Config) RunAllExtendedCtx(ctx context.Context, opts RunOptions) (CampaignReport, error) {
	return c.RunCampaign(ctx, model.EnumerateExtended(), opts)
}

// ReplayTrial re-runs one trial in isolation on a fresh machine — the
// triage entry point for a quarantined trial: the recorded behaviour and
// trial index reproduce the trial's exact seed and randomness. The Inject
// hook is not applied, so injected failures (as opposed to genuine ones) do
// not reproduce here.
func (c Config) ReplayTrial(v model.Vulnerability, mapped bool, trial int) (miss bool, err error) {
	camp, err := c.newCampaign(v, mapped)
	if err != nil {
		return false, err
	}
	miss, err = camp.runTrial(c.trialSeed(trial, mapped), c.fuel(), false)
	if err == nil {
		camp.release()
	}
	return miss, err
}
