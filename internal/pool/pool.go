// Package pool provides the bounded worker pool shared by the repo's
// parallel sweeps.
//
// The security campaigns (internal/secbench) and the performance sweeps
// (internal/perf) both fan work out at two levels: coarse units
// (vulnerabilities, Figure 7 cells) and fine units (trial shards). A single
// Pool bounds the *leaf* concurrency of a whole sweep, so a 24-vulnerability
// campaign with trial sharding saturates exactly N cores instead of
// len(vulns) goroutines each running 1,000 serial trials — or, worse, an
// unbounded goroutine per cell.
//
// The pool is a semaphore, not a task queue: RunCtx executes the function on
// the calling goroutine once a slot is free, and ForEachCtx spawns one
// goroutine per index that does the same. Because slots are held only while
// a leaf function runs (orchestrating goroutines never hold a slot while
// waiting on children), nested fan-out cannot deadlock.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Pool bounds how many submitted functions execute concurrently.
//
// The zero value is not ready to use; call New.
type Pool struct {
	sem chan struct{}
}

// Workers normalises a requested parallelism: values <= 0 select
// runtime.GOMAXPROCS(0), mirroring the CLI convention that -parallel 0
// means "all cores".
func Workers(parallelism int) int {
	if parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallelism
}

// New returns a pool executing at most Workers(parallelism) functions at a
// time.
func New(parallelism int) *Pool {
	return &Pool{sem: make(chan struct{}, Workers(parallelism))}
}

// Size returns the pool's worker bound.
func (p *Pool) Size() int { return cap(p.sem) }

// InFlight returns how many worker slots are currently occupied — an
// instantaneous utilization reading for monitoring (the daemon's /metrics
// endpoint reports InFlight over Size). It is inherently racy: by the time
// the caller acts on the value, workers may have started or finished.
func (p *Pool) InFlight() int { return len(p.sem) }

// RunCtx executes fn on the calling goroutine once a worker slot is free, and
// releases the slot when fn returns. It waits for the slot only as long as
// ctx is live: when the context is cancelled before a slot frees up, fn is
// NOT executed and the context's error is returned; once fn has started it
// always runs to completion (cancellation stops admission, never preempts).
// A nil return means fn ran. fn must not wait on other pool work while
// holding the slot (leaf work only).
func (p *Pool) RunCtx(ctx context.Context, fn func()) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-p.sem }()
	fn()
	return nil
}

// ForEachCtx runs fn(i) for i in [0, n) with the pool's concurrency bound
// and waits for all of them. Each invocation occupies one worker slot; the
// iteration order across workers is unspecified, so fn must write only to
// its own index's state. Once ctx is cancelled it stops admitting new
// iterations, waits for every iteration already started to drain, and
// returns the context's error. A nil return guarantees fn(i) ran for every
// i in [0, n); a non-nil return means at least the iterations not yet
// started were skipped, so partial per-index results must be discarded (or
// re-derived) by the caller.
func (p *Pool) ForEachCtx(ctx context.Context, n int, fn func(i int)) error {
	var wg sync.WaitGroup
	for i := 0; i < n && ctx.Err() == nil; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = p.RunCtx(ctx, func() { fn(i) }) // a skipped fn shows in ctx.Err
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// PanicError is a panic recovered from a worker function by Safely: the
// panic value plus the stack of the panicking goroutine, captured at recover
// time. It lets a campaign quarantine one crashing trial and keep running
// while preserving everything needed to debug the crash.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Safely runs fn, converting a panic into a returned *PanicError instead of
// unwinding the calling goroutine. Campaign runners wrap each trial in
// Safely so one crashing trial cannot take down the whole sweep.
func Safely(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// Shard describes a half-open index range [Lo, Hi) of a sharded loop.
type Shard struct {
	Lo, Hi int
}

// Shards splits n items into at most parts contiguous, near-equal ranges,
// in order. It returns nil when n <= 0. The union of the returned ranges is
// exactly [0, n), so per-item work partitioned this way is identical to a
// serial loop — only the grouping changes.
func Shards(n, parts int) []Shard {
	if n <= 0 {
		return nil
	}
	if parts > n {
		parts = n
	}
	if parts < 1 {
		parts = 1
	}
	out := make([]Shard, 0, parts)
	lo := 0
	for i := 0; i < parts; i++ {
		// Distribute the remainder one item at a time so sizes differ by at
		// most one.
		size := (n - lo) / (parts - i)
		out = append(out, Shard{Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}
