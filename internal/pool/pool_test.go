package pool

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkersNormalisation(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d", got)
	}
	if got := New(5).Size(); got != 5 {
		t.Errorf("Size = %d, want 5", got)
	}
}

func TestInFlightTracksOccupiedSlots(t *testing.T) {
	p := New(2)
	if got := p.InFlight(); got != 0 {
		t.Errorf("idle InFlight = %d, want 0", got)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = p.RunCtx(context.Background(), func() {
			close(started)
			<-release
		})
	}()
	<-started
	if got := p.InFlight(); got != 1 {
		t.Errorf("InFlight with one running worker = %d, want 1", got)
	}
	close(release)
	wg.Wait()
	if got := p.InFlight(); got != 0 {
		t.Errorf("drained InFlight = %d, want 0", got)
	}
}

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	p := New(3)
	const n = 100
	counts := make([]int32, n)
	if err := p.ForEachCtx(context.Background(), n, func(i int) { atomic.AddInt32(&counts[i], 1) }); err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

func TestConcurrencyBound(t *testing.T) {
	p := New(2)
	var cur, peak int32
	_ = p.ForEachCtx(context.Background(), 20, func(int) {
		n := atomic.AddInt32(&cur, 1)
		for {
			old := atomic.LoadInt32(&peak)
			if n <= old || atomic.CompareAndSwapInt32(&peak, old, n) {
				break
			}
		}
		runtime.Gosched()
		atomic.AddInt32(&cur, -1)
	})
	if peak > 2 {
		t.Errorf("observed %d concurrent workers, bound is 2", peak)
	}
}

func TestNestedFanOutDoesNotDeadlock(t *testing.T) {
	// Orchestrators fan out leaves through the same pool; only leaves hold
	// slots, so a 1-worker pool must still finish.
	p := New(1)
	var total int32
	var outer sync.WaitGroup
	for i := 0; i < 4; i++ {
		outer.Add(1)
		go func() {
			defer outer.Done()
			_ = p.ForEachCtx(context.Background(), 5, func(int) { atomic.AddInt32(&total, 1) })
		}()
	}
	outer.Wait()
	if total != 20 {
		t.Errorf("ran %d leaves, want 20", total)
	}
}

func TestRunCtxCancelledBeforeSlot(t *testing.T) {
	p := New(1)
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // occupy the only slot
		defer wg.Done()
		_ = p.RunCtx(context.Background(), func() { <-release })
	}()
	for {
		// Wait until the slot is actually held.
		if len(p.sem) == 1 {
			break
		}
		runtime.Gosched()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if err := p.RunCtx(ctx, func() { ran = true }); !errors.Is(err, context.Canceled) {
		t.Errorf("RunCtx on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("fn ran despite cancelled context")
	}
	close(release)
	wg.Wait()
	// With the slot free and a live context, RunCtx executes fn.
	if err := p.RunCtx(context.Background(), func() { ran = true }); err != nil || !ran {
		t.Errorf("RunCtx after release: err = %v, ran = %v", err, ran)
	}
}

func TestForEachCtxStopsAdmittingOnCancel(t *testing.T) {
	p := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	var started int32
	err := p.ForEachCtx(ctx, 1000, func(i int) {
		if atomic.AddInt32(&started, 1) == 3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Every started iteration drained before ForEachCtx returned, and far
	// fewer than n iterations were admitted after the cancellation.
	if n := atomic.LoadInt32(&started); n >= 1000 {
		t.Errorf("all %d iterations ran despite mid-run cancellation", n)
	}
}

func TestForEachCtxCompleteRunReturnsNil(t *testing.T) {
	p := New(3)
	var count int32
	if err := p.ForEachCtx(context.Background(), 50, func(int) { atomic.AddInt32(&count, 1) }); err != nil {
		t.Fatalf("err = %v", err)
	}
	if count != 50 {
		t.Errorf("ran %d iterations, want 50", count)
	}
}

func TestSafelyCapturesPanic(t *testing.T) {
	err := Safely(func() error { panic("boom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *PanicError", err, err)
	}
	if pe.Value != "boom" || !strings.Contains(pe.Error(), "boom") {
		t.Errorf("PanicError = %+v", pe)
	}
	if len(pe.Stack) == 0 {
		t.Error("no stack captured")
	}
	if err := Safely(func() error { return nil }); err != nil {
		t.Errorf("clean fn: err = %v", err)
	}
	want := errors.New("plain")
	if err := Safely(func() error { return want }); err != want {
		t.Errorf("error passthrough: err = %v", err)
	}
}

func TestShards(t *testing.T) {
	if got := Shards(0, 4); got != nil {
		t.Errorf("Shards(0,4) = %v, want nil", got)
	}
	for _, tc := range []struct{ n, parts int }{
		{10, 3}, {10, 10}, {3, 8}, {1, 1}, {500, 7}, {5, 0},
	} {
		shards := Shards(tc.n, tc.parts)
		want := tc.parts
		if want > tc.n {
			want = tc.n
		}
		if want < 1 {
			want = 1
		}
		if len(shards) != want {
			t.Errorf("Shards(%d,%d): %d shards, want %d", tc.n, tc.parts, len(shards), want)
		}
		next, total := 0, 0
		for _, s := range shards {
			if s.Lo != next || s.Hi <= s.Lo {
				t.Fatalf("Shards(%d,%d): bad range %+v after %d", tc.n, tc.parts, s, next)
			}
			total += s.Hi - s.Lo
			next = s.Hi
		}
		if total != tc.n {
			t.Errorf("Shards(%d,%d) covers %d items", tc.n, tc.parts, total)
		}
	}
}
