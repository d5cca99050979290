package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a package, recorded by the benchmark around
// the call. Spans of one op share Op; Parent indexes the enclosing span (-1
// for an op's root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced runs call the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds an already-timed span (for calls timed in a tight loop,
// where opening a span per call would cost more than the call).
func (t *tracer) record(name string, parent int, op int64, start time.Time, d time.Duration) int {
	if t == nil {
		return -1
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + d.Nanoseconds(), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// agg summarises the closed spans of one name.
type agg struct {
	n           int
	total, self time.Duration
}

// aggregate groups closed spans by name. A span's self time is its
// duration minus the part of it that its children's union covers.
func (t *tracer) aggregate() map[string]*agg {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]int{}
	for i, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]*agg{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		a := out[s.Name]
		if a == nil {
			a = &agg{}
			out[s.Name] = a
		}
		d := s.End - s.Start
		a.n++
		a.total += time.Duration(d)
		a.self += time.Duration(d - covered(t.spans, children[i], s.Start, s.End))
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of the given spans.
func covered(spans []span, ids []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(ids))
	for _, id := range ids {
		a, b := max(spans[id].Start, lo), min(spans[id].End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			sum += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		sum += curB - curA
	}
	return sum
}

// meanSelf is the mean self time of the named spans in unit (0 if none).
func (t *tracer) meanSelf(aggs map[string]*agg, name string, unit time.Duration) float64 {
	a := aggs[name]
	if a == nil || a.n == 0 {
		return 0
	}
	return float64(a.self) / float64(a.n) / float64(unit)
}

// dump writes every span as NDJSON under dir.
func (t *tracer) dump(dir string, o options) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.ndjson", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "e2ebench: spans written to", path)
	return nil
}

// summary prints per-name span counts, total and self time.
func (t *tracer) summary(w io.Writer) {
	aggs := t.aggregate()
	names := make([]string, 0, len(aggs))
	for n := range aggs {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-32s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		a := aggs[n]
		fmt.Fprintf(w, "%-32s %8d %12.3f %12.3f\n", n, a.n,
			float64(a.total)/float64(time.Millisecond), float64(a.self)/float64(time.Millisecond))
	}
}
