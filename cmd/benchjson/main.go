// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON summary, aggregating repeated runs (-count N) into
// per-benchmark medians and deriving replay-vs-full-execution speedups for
// the trace-replay A/B pairs.
//
// `make bench` pipes the campaign benchmarks through it to produce
// BENCH_campaign.json, the checked-in record of the trace-replay speedup:
//
//	go test -run xxx -bench 'Table4SecurityEvalRF|Campaign|Figure7(TraceReplay|FullExec)' \
//	    -benchtime 20x -count 5 . | go run ./cmd/benchjson -out BENCH_campaign.json
//
// Speedup pairs are matched by naming convention: a benchmark named
// <base>FullExec is the full-execution twin of <base> or <base>TraceReplay,
// whichever exists; the recorded speedup is the ratio of the two medians
// (medians, not means, so a single noisy run cannot skew the record).
//
// With -compare <baseline.json> it also checks the new results against an
// earlier report and exits 1 when a benchmark drifted: when its new median
// lies outside the baseline's sample spread [min, max] and the baseline's
// median lies outside the new spread, so that neither file's own run-to-run
// noise covers the move. Every drifted benchmark is listed; benchmarks in
// only one of the two files are reported but never fail the check.
//
//	go test -run xxx -bench 'Table4SecurityEvalRF' -benchtime 20x -count 5 . |
//	    go run ./cmd/benchjson -compare BENCH_campaign.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches one benchmark result line, e.g.
//
//	BenchmarkTable4SecurityEvalRF-8   20   1904506 ns/op   12 B/op   0 allocs/op
//
// The GOMAXPROCS suffix is optional (absent when GOMAXPROCS=1).
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+([0-9.]+) ns/op(.*)$`)

// metricPair matches the trailing "<value> <unit>" extras on a result line
// (B/op, allocs/op, and any b.ReportMetric unit).
var metricPair = regexp.MustCompile(`([0-9.]+) (\S+)`)

type sample struct {
	nsPerOp float64
	iters   uint64
	metrics map[string]float64
}

// Benchmark is the aggregated record of one benchmark across -count runs.
type Benchmark struct {
	Name       string             `json:"name"`
	Samples    int                `json:"samples"`
	Iterations uint64             `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`               // median across samples
	NsPerOpMin float64            `json:"ns_per_op_min"`           // fastest sample
	NsPerOpMax float64            `json:"ns_per_op_max,omitempty"` // slowest sample
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Speedup records one replay-vs-full A/B pair.
type Speedup struct {
	Pair          string  `json:"pair"`
	Replay        string  `json:"replay"`
	FullExec      string  `json:"full_exec"`
	ReplayNsPerOp float64 `json:"replay_ns_per_op"`
	FullNsPerOp   float64 `json:"full_ns_per_op"`
	Speedup       float64 `json:"speedup"`
}

// Report is the top-level JSON document.
type Report struct {
	GoVersion  string      `json:"go_version"`
	GoMaxProcs int         `json:"gomaxprocs,omitempty"`
	CPU        string      `json:"cpu,omitempty"` // model from the "cpu:" header
	Benchmarks []Benchmark `json:"benchmarks"`
	Speedups   []Speedup   `json:"speedups,omitempty"`
}

func main() {
	out := flag.String("out", "", "write the JSON report here instead of stdout")
	baseline := flag.String("compare", "", "baseline JSON report: list benchmarks that drifted from it and exit 1 if any did")
	flag.Parse()

	report, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	var base *Report
	if *baseline != "" {
		if base, err = load(*baseline); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	switch {
	case *out != "":
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		// Echo the headline numbers so `make bench` still reads like a benchmark.
		for _, s := range report.Speedups {
			fmt.Printf("%s: %.2fx (replay %.3fms, full %.3fms)\n",
				s.Pair, s.Speedup, s.ReplayNsPerOp/1e6, s.FullNsPerOp/1e6)
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(report.Benchmarks))
	case base == nil:
		os.Stdout.Write(buf)
	}
	if base != nil {
		lines, drifted := compare(base, report)
		for _, l := range lines {
			fmt.Println(l)
		}
		if drifted > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) drifted from %s\n", drifted, *baseline)
			os.Exit(1)
		}
	}
}

// load reads a JSON report written by an earlier run.
func load(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// spread is the range of a benchmark's samples. Reports written before the
// slowest sample was recorded have no max; their spread ends at the median.
func spread(b *Benchmark) (lo, hi float64) {
	hi = b.NsPerOpMax
	if hi < b.NsPerOp {
		hi = b.NsPerOp
	}
	return b.NsPerOpMin, hi
}

// compare lists, for every benchmark of cur, how its median moved from base
// and whether that counts as drift (see the package doc), and returns the
// lines and the number of drifted benchmarks.
func compare(base, cur *Report) (lines []string, drifted int) {
	old := map[string]*Benchmark{}
	for i := range base.Benchmarks {
		old[base.Benchmarks[i].Name] = &base.Benchmarks[i]
	}
	seen := map[string]bool{}
	for i := range cur.Benchmarks {
		b := &cur.Benchmarks[i]
		seen[b.Name] = true
		a := old[b.Name]
		if a == nil {
			lines = append(lines, fmt.Sprintf("%s: new, %s", b.Name, dur(b.NsPerOp)))
			continue
		}
		alo, ahi := spread(a)
		blo, bhi := spread(b)
		verdict := "within the spread"
		if (b.NsPerOp < alo || b.NsPerOp > ahi) && (a.NsPerOp < blo || a.NsPerOp > bhi) {
			verdict = "DRIFTED"
			drifted++
		}
		change := 0.0
		if a.NsPerOp > 0 {
			change = 100 * (b.NsPerOp/a.NsPerOp - 1)
		}
		lines = append(lines, fmt.Sprintf("%s: %s -> %s (%+.1f%%), spreads [%s, %s] -> [%s, %s]: %s",
			b.Name, dur(a.NsPerOp), dur(b.NsPerOp), change, dur(alo), dur(ahi), dur(blo), dur(bhi), verdict))
	}
	for i := range base.Benchmarks {
		if name := base.Benchmarks[i].Name; !seen[name] {
			lines = append(lines, fmt.Sprintf("%s: only in the baseline", name))
		}
	}
	return lines, drifted
}

type lineScanner interface {
	Scan() bool
	Text() string
	Err() error
}

// parse consumes `go test -bench` output and builds the aggregated report.
// The first "cpu:" header names the processor model; other non-benchmark
// lines (the PASS/ok trailer, compile output) are ignored, so the full
// `go test` stream can be piped in unfiltered.
func parse(sc lineScanner) (*Report, error) {
	samples := map[string][]sample{}
	order := []string{}
	procs := 0
	cpu := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if model, ok := strings.CutPrefix(line, "cpu:"); ok && cpu == "" {
			cpu = strings.TrimSpace(model)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		if m[2] != "" {
			if p, err := strconv.Atoi(m[2]); err == nil {
				procs = p
			}
		}
		iters, _ := strconv.ParseUint(m[3], 10, 64)
		ns, err := strconv.ParseFloat(m[4], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %v", sc.Text(), err)
		}
		s := sample{nsPerOp: ns, iters: iters}
		for _, mm := range metricPair.FindAllStringSubmatch(m[5], -1) {
			v, err := strconv.ParseFloat(mm[1], 64)
			if err != nil {
				continue
			}
			if s.metrics == nil {
				s.metrics = map[string]float64{}
			}
			s.metrics[mm[2]] = v
		}
		if _, seen := samples[name]; !seen {
			order = append(order, name)
		}
		samples[name] = append(samples[name], s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("no benchmark lines on stdin")
	}

	report := &Report{GoVersion: runtime.Version(), GoMaxProcs: procs, CPU: cpu}
	byName := map[string]*Benchmark{}
	for _, name := range order {
		ss := samples[name]
		b := Benchmark{Name: name, Samples: len(ss)}
		vals := make([]float64, len(ss))
		min, max := ss[0].nsPerOp, ss[0].nsPerOp
		units := map[string][]float64{}
		for i, s := range ss {
			vals[i] = s.nsPerOp
			b.Iterations += s.iters
			min, max = math.Min(min, s.nsPerOp), math.Max(max, s.nsPerOp)
			for u, v := range s.metrics {
				units[u] = append(units[u], v)
			}
		}
		b.NsPerOp = median(vals)
		b.NsPerOpMin, b.NsPerOpMax = min, max
		for u, vs := range units {
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[u] = median(vs)
		}
		report.Benchmarks = append(report.Benchmarks, b)
		byName[name] = &report.Benchmarks[len(report.Benchmarks)-1]
	}

	for _, name := range order {
		base, ok := strings.CutSuffix(name, "FullExec")
		if !ok || base == "" {
			continue
		}
		full := byName[name]
		replay := byName[base]
		if replay == nil {
			replay = byName[base+"TraceReplay"]
		}
		if replay == nil || replay.NsPerOp <= 0 {
			continue
		}
		report.Speedups = append(report.Speedups, Speedup{
			Pair:          base,
			Replay:        replay.Name,
			FullExec:      full.Name,
			ReplayNsPerOp: replay.NsPerOp,
			FullNsPerOp:   full.NsPerOp,
			Speedup:       full.NsPerOp / replay.NsPerOp,
		})
	}
	return report, nil
}

// dur renders a ns/op figure in the unit that suits it.
func dur(ns float64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.3fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.3fus", ns/1e3)
	}
	return fmt.Sprintf("%.1fns", ns)
}

func median(vs []float64) float64 {
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
