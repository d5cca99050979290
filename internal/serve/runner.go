// Package serve turns the one-shot campaign CLIs into a long-lived
// service: a job.Runner that executes campaign specs on a shared worker
// pool with checkpoint-backed durability, and the stdlib net/http API the
// tlbserved daemon exposes (job submission with request coalescing, NDJSON
// progress/result streaming, cancellation, and a /metrics endpoint).
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"securetlb/internal/checkpoint"
	"securetlb/internal/design"
	"securetlb/internal/job"
	"securetlb/internal/perf"
	"securetlb/internal/pool"
	"securetlb/internal/secbench"
)

// Result is the payload of a completed job. Output is rendered through the
// same formatting code the CLIs use, so it is byte-identical to the direct
// `secbench`/`perfbench` run of the same configuration (at the same worker
// count, which only appears in the table headers).
type Result struct {
	Kind string `json:"kind"`
	// Output is the campaign's rendered tables.
	Output string `json:"output"`
	// Quarantined counts trials excluded from the statistics (secbench).
	Quarantined int `json:"quarantined,omitempty"`
}

// progressInterval is how often a running job's checkpoint is polled for a
// progress event.
const progressInterval = 100 * time.Millisecond

// CampaignRunner executes campaign specs for the job queue. All jobs share
// one worker pool — the whole point of serving campaigns from a daemon:
// concurrent callers saturate exactly Pool.Size() cores between them
// instead of each spawning their own fleet.
type CampaignRunner struct {
	// Dir is where per-job checkpoint files live (normally the queue's
	// directory).
	Dir string
	// Pool bounds the leaf concurrency of all jobs together.
	Pool *pool.Pool

	quarantined atomic.Int64
}

// Quarantined returns the total number of trials quarantined across every
// campaign this runner has executed — a daemon-lifetime health counter for
// /metrics.
func (r *CampaignRunner) Quarantined() int64 { return r.quarantined.Load() }

// Run implements job.Runner. The spec's checkpoint file (named by the job
// fingerprint, validated by the campaign fingerprint) makes an execution
// resumable: a job interrupted by a daemon shutdown — graceful or not —
// picks up from its completed work units on the next run and finishes
// bit-identical to an uninterrupted one. The checkpoint is removed once
// the result is durable in the job record.
func (r *CampaignRunner) Run(ctx context.Context, spec job.Spec, publish func(job.Event)) (json.RawMessage, error) {
	id, err := spec.ID()
	if err != nil {
		return nil, err
	}
	ckPath := filepath.Join(r.Dir, id+".ckpt.json")
	// Flush every unit: a served job must survive a SIGKILL losing at most
	// the units still in flight.
	ck, err := checkpoint.Open(ckPath, r.fingerprint(spec), 1, true)
	if err != nil {
		return nil, err
	}
	stopProgress := r.watchProgress(ck, publish)
	var res Result
	switch spec.Kind {
	case job.KindSecbench:
		res, err = r.runSecbench(ctx, spec, ck)
	case job.KindPerf:
		res, err = r.runPerf(ctx, spec, ck)
	default:
		err = fmt.Errorf("serve: unknown job kind %q", spec.Kind)
	}
	stopProgress()
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	os.Remove(ckPath)
	return raw, nil
}

// fingerprint identifies a spec's campaign configuration for checkpoint
// validation, mirroring what the CLIs compute for the same flags.
func (r *CampaignRunner) fingerprint(spec job.Spec) string {
	if spec.Kind == job.KindPerf {
		return perf.SweepFingerprint(spec.Seed)
	}
	designs, err := design.Security.Parse(spec.Design)
	if err != nil {
		return "invalid:" + spec.Design
	}
	fps := make([]string, 0, len(designs))
	for _, d := range designs {
		fps = append(fps, r.secbenchConfig(d, spec).Fingerprint(spec.Extended))
	}
	return strings.Join(fps, ";")
}

func (r *CampaignRunner) secbenchConfig(d secbench.Design, spec job.Spec) secbench.Config {
	cfg := secbench.DefaultConfig(d)
	cfg.Trials = spec.Trials
	cfg.Invariants = spec.Invariants
	return cfg
}

// watchProgress publishes a progress event whenever the checkpoint's
// completed-unit count changes. The returned stop function publishes a
// final reading before detaching, so subscribers always see the last unit.
func (r *CampaignRunner) watchProgress(ck *checkpoint.File, publish func(job.Event)) func() {
	done := make(chan struct{})
	finished := make(chan struct{})
	last := ck.Len()
	if last > 0 {
		publish(job.Event{Type: "progress", Units: last})
	}
	go func() {
		defer close(finished)
		ticker := time.NewTicker(progressInterval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				if n := ck.Len(); n != last {
					last = n
					publish(job.Event{Type: "progress", Units: n})
				}
			}
		}
	}()
	return func() {
		close(done)
		<-finished
		if n := ck.Len(); n != last {
			publish(job.Event{Type: "progress", Units: n})
		}
	}
}

func (r *CampaignRunner) runSecbench(ctx context.Context, spec job.Spec, ck *checkpoint.File) (Result, error) {
	res := Result{Kind: job.KindSecbench}
	designs, err := design.Security.Parse(spec.Design)
	if err != nil {
		return res, err
	}
	opts := secbench.RunOptions{Pool: r.Pool, Checkpoint: ck}
	var out strings.Builder
	for _, d := range designs {
		cfg := r.secbenchConfig(d, spec)
		var rep secbench.CampaignReport
		if spec.Extended {
			rep, err = cfg.RunAllExtendedCtx(ctx, opts)
		} else {
			rep, err = cfg.RunAllCtx(ctx, opts)
		}
		if err != nil {
			return res, err
		}
		r.quarantined.Add(int64(len(rep.Quarantined)))
		res.Quarantined += len(rep.Quarantined)
		out.WriteString(secbench.FormatCampaign(d, spec.Trials, r.Pool.Size(), spec.Extended, rep))
	}
	res.Output = out.String()
	return res, nil
}

func (r *CampaignRunner) runPerf(ctx context.Context, spec job.Spec, ck *checkpoint.File) (Result, error) {
	res := Result{Kind: job.KindPerf}
	designs, err := design.Perf.Parse(spec.Design)
	if err != nil {
		return res, err
	}
	var out strings.Builder
	for _, d := range designs {
		rows, err := perf.Figure7Pool(ctx, d, spec.Secure, spec.Decrypts, spec.Seed, r.Pool, ck)
		if err != nil {
			return res, err
		}
		out.WriteString(perf.SweepHeader(d, spec.Secure, spec.Decrypts, r.Pool.Size()))
		out.WriteString(perf.FormatRows(rows))
	}
	res.Output = out.String()
	return res, nil
}
