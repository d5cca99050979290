package main

import (
	"bufio"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: securetlb
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTable4SecurityEvalRF-8         	      20	   2000000 ns/op
BenchmarkTable4SecurityEvalRF-8         	      20	   1900000 ns/op
BenchmarkTable4SecurityEvalRF-8         	      20	   2100000 ns/op
BenchmarkTable4SecurityEvalRFFullExec-8 	      20	  10000000 ns/op
BenchmarkTable4SecurityEvalRFFullExec-8 	      20	  10400000 ns/op
BenchmarkTable4SecurityEvalRFFullExec-8 	      20	   9800000 ns/op
BenchmarkCampaignTraceReplay-8          	      20	   4650000 ns/op	    1024 B/op	      12 allocs/op
BenchmarkCampaignFullExec-8             	      20	  21300000 ns/op	    2048 B/op	      24 allocs/op
BenchmarkFigure7TraceReplay-8           	       5	  18500000 ns/op	    4000 allocs/op
BenchmarkFigure7FullExec-8              	       5	  39000000 ns/op	  265000 allocs/op
PASS
ok  	securetlb	12.345s
`

func scan(s string) *bufio.Scanner { return bufio.NewScanner(strings.NewReader(s)) }

func TestParseAggregatesAndPairs(t *testing.T) {
	r, err := parse(scan(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if r.GoMaxProcs != 8 {
		t.Errorf("gomaxprocs = %d, want 8", r.GoMaxProcs)
	}
	if r.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("cpu = %q, want the header's model", r.CPU)
	}
	if len(r.Benchmarks) != 6 {
		t.Fatalf("benchmarks = %d, want 6", len(r.Benchmarks))
	}

	rf := r.Benchmarks[0]
	if rf.Name != "Table4SecurityEvalRF" || rf.Samples != 3 || rf.Iterations != 60 {
		t.Errorf("rf aggregate = %+v", rf)
	}
	if rf.NsPerOp != 2000000 { // median of 2.0/1.9/2.1 ms
		t.Errorf("rf median = %v, want 2000000", rf.NsPerOp)
	}
	if rf.NsPerOpMin != 1900000 {
		t.Errorf("rf min = %v, want 1900000", rf.NsPerOpMin)
	}

	camp := r.Benchmarks[2]
	if camp.Metrics["B/op"] != 1024 || camp.Metrics["allocs/op"] != 12 {
		t.Errorf("campaign metrics = %v", camp.Metrics)
	}

	if len(r.Speedups) != 3 {
		t.Fatalf("speedups = %d, want 3: %+v", len(r.Speedups), r.Speedups)
	}
	want := map[string]float64{
		"Table4SecurityEvalRF": 10000000.0 / 2000000, // median/median = 5x
		"Campaign":             21300000.0 / 4650000,
		"Figure7":              39000000.0 / 18500000,
	}
	for _, s := range r.Speedups {
		w, ok := want[s.Pair]
		if !ok {
			t.Errorf("unexpected pair %q", s.Pair)
			continue
		}
		if math.Abs(s.Speedup-w) > 1e-9 {
			t.Errorf("%s speedup = %v, want %v", s.Pair, s.Speedup, w)
		}
		delete(want, s.Pair)
	}
	for p := range want {
		t.Errorf("missing pair %q", p)
	}
}

func TestParsePairMatchesBareBase(t *testing.T) {
	// <base> and <base>FullExec (no TraceReplay suffix) must pair too.
	r, err := parse(scan(
		"BenchmarkX-2 10 100 ns/op\nBenchmarkXFullExec-2 10 500 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Speedups) != 1 || r.Speedups[0].Speedup != 5 {
		t.Fatalf("speedups = %+v", r.Speedups)
	}
	if r.Speedups[0].Replay != "X" || r.Speedups[0].FullExec != "XFullExec" {
		t.Fatalf("pair names = %+v", r.Speedups[0])
	}
}

func TestParseNoProcsSuffix(t *testing.T) {
	// GOMAXPROCS=1 output has no -N suffix on the name.
	r, err := parse(scan("BenchmarkY 100 42.5 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Benchmarks[0].Name != "Y" || r.Benchmarks[0].NsPerOp != 42.5 {
		t.Fatalf("benchmark = %+v", r.Benchmarks[0])
	}
	if r.GoMaxProcs != 0 {
		t.Errorf("gomaxprocs = %d, want 0", r.GoMaxProcs)
	}
	if r.CPU != "" {
		t.Errorf("cpu = %q, want empty without a cpu: header", r.CPU)
	}
}

func TestParseEmptyInputFails(t *testing.T) {
	if _, err := parse(scan("PASS\nok x 1s\n")); err == nil {
		t.Fatal("want error on input with no benchmark lines")
	}
}

// compareOutput is a later run against testdata/baseline.json: the RF
// campaign slowed well past both spreads, the trace-replay campaign moved
// inside the baseline's spread, Figure 7 (whose baseline predates the
// recorded max, so its spread ends at the median) sped up past both, and
// PrinceEncrypt is gone while RunAllSerial is new.
const compareOutput = `cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTable4SecurityEvalRF-2     	      20	   3100000 ns/op
BenchmarkTable4SecurityEvalRF-2     	      20	   3000000 ns/op
BenchmarkTable4SecurityEvalRF-2     	      20	   3200000 ns/op
BenchmarkCampaignTraceReplay-2      	      20	   4650000 ns/op
BenchmarkCampaignTraceReplay-2      	      20	   4400000 ns/op
BenchmarkCampaignTraceReplay-2      	      20	   5000000 ns/op
BenchmarkFigure7TraceReplay-2       	       5	  12000000 ns/op
BenchmarkFigure7TraceReplay-2       	       5	  12500000 ns/op
BenchmarkRunAllSerial-2             	      20	   2500000 ns/op
`

func TestCompareFlagsDriftOutsideBothSpreads(t *testing.T) {
	base, err := load(filepath.Join("testdata", "baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := parse(scan(compareOutput))
	if err != nil {
		t.Fatal(err)
	}
	if b := cur.Benchmarks[0]; b.NsPerOpMin != 3000000 || b.NsPerOpMax != 3200000 {
		t.Fatalf("RF spread = [%v, %v], want [3000000, 3200000]", b.NsPerOpMin, b.NsPerOpMax)
	}
	lines, drifted := compare(base, cur)
	if drifted != 2 {
		t.Errorf("drifted = %d, want 2 (RF and Figure 7)", drifted)
	}
	want := map[string]string{
		"Table4SecurityEvalRF": "DRIFTED",
		"CampaignTraceReplay":  "within the spread",
		"Figure7TraceReplay":   "DRIFTED",
		"RunAllSerial":         "new",
		"PrinceEncrypt":        "only in the baseline",
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want), strings.Join(lines, "\n"))
	}
	for _, l := range lines {
		name, rest, _ := strings.Cut(l, ":")
		if w, ok := want[name]; !ok || !strings.Contains(rest, w) {
			t.Errorf("line %q: want it to say %q", l, w)
		}
	}

	// A run equal to its own baseline never drifts.
	if _, n := compare(cur, cur); n != 0 {
		t.Errorf("a report compared with itself drifted %d times", n)
	}
}
