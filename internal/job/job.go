// Package job is the campaign-serving core of the tlbserved daemon: the
// job model (a content-addressed campaign request moving through a small
// state machine) and a durable queue that coalesces identical requests,
// caches completed results, streams progress events to subscribers, and
// survives a daemon restart.
//
// A job's identity is the fingerprint of its normalised spec (the same
// internal/fingerprint scheme the checkpoint files use), so two clients
// asking for the same campaign — concurrently or days apart — address the
// same job: in-flight requests coalesce onto one execution, completed ones
// are served from the stored result. Because campaign results are
// bit-identical reproducible (the repo's seed-derivation contract), a
// cached result is indistinguishable from a fresh run, which is what makes
// content-addressed caching sound here.
package job

import (
	"encoding/json"
	"errors"
	"fmt"

	"securetlb/internal/design"
	"securetlb/internal/fingerprint"
)

// The package's sentinel errors.
var (
	// ErrNotFound is returned for operations on an unknown job ID.
	ErrNotFound = errors.New("job: not found")
	// ErrDraining is returned by Submit once the queue has begun shutting
	// down; the daemon maps it to 503.
	ErrDraining = errors.New("job: queue is draining")
	// ErrQueueFull is returned by Submit when the live-job depth is at
	// Limits.MaxPending; the daemon maps it to 429 with a Retry-After.
	ErrQueueFull = errors.New("job: queue is full")
	// ErrClientBusy is returned by Submit when the client is already
	// attached to Limits.MaxPerClient live jobs; the daemon maps it to 429.
	ErrClientBusy = errors.New("job: client has too many jobs in flight")
)

// Spec kinds.
const (
	// KindSecbench is a Table 4 / Appendix B security campaign
	// (cmd/secbench's workload).
	KindSecbench = "secbench"
	// KindPerf is a Figure 7 IPC/MPKI sweep (cmd/perfbench's workload).
	KindPerf = "perf"
)

// Spec is a campaign request: everything that determines a campaign's
// results, and nothing that doesn't (execution details like pool sizes are
// the daemon's, not the spec's, so they never fragment the cache).
type Spec struct {
	// Kind selects the campaign family: KindSecbench or KindPerf.
	Kind string `json:"kind"`
	// Design selects the TLB designs: single codes, comma-separated
	// combinations, "all" (the paper trio) or "full" (every design the
	// kind's arena has).
	Design string `json:"design"`
	// Trials is the secbench trials-per-behaviour count (default 500).
	Trials int `json:"trials,omitempty"`
	// Extended selects the Appendix B benchmark set (secbench).
	Extended bool `json:"extended,omitempty"`
	// Invariants enables the runtime invariant checker (secbench).
	Invariants bool `json:"invariants,omitempty"`
	// Secure selects the SecRSA (protections-on) sweep variant (perf).
	Secure bool `json:"secure,omitempty"`
	// Decrypts is the RSA decryptions per perf run (default 50).
	Decrypts int `json:"decrypts,omitempty"`
	// Seed is the perf sweep's PRNG seed (default 1).
	Seed uint64 `json:"seed,omitempty"`
}

// Normalize fills defaults and zeroes the fields the spec's kind does not
// use, so equivalent requests share one fingerprint (a perf spec with a
// stray trials count must not miss the cache).
func (s Spec) Normalize() Spec {
	if s.Design == "" {
		s.Design = "all"
	}
	switch s.Kind {
	case KindSecbench:
		if s.Trials == 0 {
			s.Trials = 500
		}
		s.Secure, s.Decrypts, s.Seed = false, 0, 0
	case KindPerf:
		if s.Decrypts == 0 {
			s.Decrypts = 50
		}
		if s.Seed == 0 {
			s.Seed = 1
		}
		s.Trials, s.Extended, s.Invariants = 0, false, false
	}
	return s
}

// Validate rejects malformed specs. It assumes a normalised spec. The
// design selector is validated by the kind's own arena (the secbench arena
// has an FA row the perf arena doesn't), so a spec that validates is a spec
// the runner can execute.
func (s Spec) Validate() error {
	arena := design.Security
	switch s.Kind {
	case KindSecbench:
		if s.Trials <= 0 {
			return fmt.Errorf("job: trials must be positive, got %d", s.Trials)
		}
	case KindPerf:
		if s.Decrypts <= 0 {
			return fmt.Errorf("job: decrypts must be positive, got %d", s.Decrypts)
		}
		arena = design.Perf
	default:
		return fmt.Errorf("job: unknown kind %q (want %q or %q)", s.Kind, KindSecbench, KindPerf)
	}
	if _, err := arena.Parse(s.Design); err != nil {
		return fmt.Errorf("job: %v", err)
	}
	return nil
}

// ID content-addresses the normalised spec: the job identity requests
// coalesce by.
func (s Spec) ID() (string, error) {
	return fingerprint.JSON(s.Normalize())
}

// State is a job's lifecycle position.
type State string

// The job states. Pending and Running are live (a submission coalesces
// onto them); Done, Failed and Canceled are terminal (Done serves the
// cache, Failed/Canceled are re-run by a fresh submission).
const (
	StatePending  State = "pending"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// States lists every state, in lifecycle order — the stable iteration
// order for metrics.
func States() []State {
	return []State{StatePending, StateRunning, StateDone, StateFailed, StateCanceled}
}

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is one queued campaign. The queue hands out value snapshots; the
// Result payload is shared but treated as immutable.
type Job struct {
	ID    string `json:"id"`
	Spec  Spec   `json:"spec"`
	State State  `json:"state"`
	// Error holds the failure reason for StateFailed, or the last
	// transient failure while a retry is parked pending.
	Error string `json:"error,omitempty"`
	// Result is the runner's payload for StateDone.
	Result json.RawMessage `json:"result,omitempty"`
	// Coalesced counts the submissions beyond the first that attached to
	// this job while it was live.
	Coalesced int `json:"coalesced"`
	// CacheHits counts the submissions served from this job's stored
	// result after it completed.
	CacheHits int `json:"cache_hits"`
	// Executions counts how many times the runner was started for this job
	// (resumes after a daemon restart and re-runs after failure both
	// increment it).
	Executions int `json:"executions"`
	// Units is the last progress reading: completed checkpoint units.
	Units int `json:"units,omitempty"`
	// Retries counts the transient-failure retries this job has consumed.
	// It is persisted so a daemon restart cannot reset the retry budget.
	Retries int `json:"retries,omitempty"`
	// Stalls counts the watchdog re-parks this job has consumed (also
	// persisted, bounding a deterministically wedged runner).
	Stalls int `json:"stalls,omitempty"`
	// Handoffs counts the lease-expiry re-parks: how many times a reaper
	// adopted this job from a dead or lapsed owner. Persisted so the chaos
	// audit's executions budget (1 + kills + retries + stalls + handoffs)
	// survives restarts, like Retries and Stalls.
	Handoffs int `json:"handoffs,omitempty"`
	// Lease is the current ownership record in cluster mode: which node may
	// execute and persist this job, under which fencing epoch, until which
	// deadline. Nil on single-node queues and on terminal records.
	Lease *Lease `json:"lease,omitempty"`
}

// Event is one NDJSON line of a job's progress stream.
type Event struct {
	// Job is the job ID; the queue stamps it on every published event.
	Job string `json:"job,omitempty"`
	// Type is "state" (State carries the new state, Error the reason for
	// failures), "progress" (Units carries completed checkpoint units),
	// "result" (Result carries the final payload), "retry" (Error carries
	// the transient failure, Attempt the retry ordinal), "stall"
	// (Attempt carries the watchdog re-park ordinal), or "handoff"
	// (Attempt carries the hand-off ordinal: the job's lease expired or was
	// fenced and another node re-parked it).
	Type   string          `json:"type"`
	State  State           `json:"state,omitempty"`
	Units  int             `json:"units,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	// Attempt is the 1-based retry or stall ordinal for those event types.
	Attempt int `json:"attempt,omitempty"`
}
