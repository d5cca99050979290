// Command e2ebench is the repository's end-to-end benchmark: one process
// that drives one workload (Table 4 campaigns, Figure 7 sweeps or
// invariant-checked campaigns) in a closed loop for a fixed time, checks
// that every simulated result is still what it was, and prints the metrics
// a user of the harness waits on as the last line of its standard output.
//
//	bash e2ebench/run.sh --workload table4 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; set-up time is the
// median of several fresh child processes, each timed from its start until
// its warm-up op is done. Every timing leaves out the host's steal time
// (see stopwatch). With --trace 1 it runs the workload untraced and then
// traced for half the time each, records spans around the calls it makes
// into each package, and runs that workload's layer decomposition, the TLB
// micro rung and a short served rung against an in-process tlbserved; it
// reports the per-layer metrics and the tracing overhead, and writes the
// spans to .bench_build/e2ebench/spans/. Metric names and units come from
// BENCHMARK.json at the checkout root, and the benchmark refuses to report
// a set that differs from it.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"securetlb/internal/pool"
)

// setupProbes is how many child processes time the set-up; the reported
// setup_s is their median.
const setupProbes = 7

type options struct {
	root     string
	workload string
	seed     int64
	seconds  int
	trace    bool
	probe    bool
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// window is what one timed stretch of a workload produced.
type window struct {
	// wall is how long the stretch ran (stopwatch time for closed loops)
	// and stolen the host steal time left out of it.
	wall, stolen time.Duration
	attempted    int
	failed       int
	// cold holds submit→result latencies (ms) of ops that started an
	// execution: every closed-loop op, and served submissions that were
	// neither cache hits nor coalesced.
	cold, hits []float64
	instr      float64 // simulated instructions completed
	rssMB      float64 // peak RSS after the closed loop's rssOps-th op
	trials     int     // Table 4 trials completed
	mismatches []string
}

func (w *window) fail(format string, args ...any) {
	w.failed++
	w.mismatches = append(w.mismatches, fmt.Sprintf(format, args...))
}

// A driver runs one workload.
type driver interface {
	// setup builds the long-lived parts (pool or daemon) and runs one
	// untimed warm-up op whose rendered output must match its pinned digest.
	setup(b *bench, tr *tracer) error
	// measure drives the workload for d. A nil tracer records nothing.
	measure(b *bench, d time.Duration, tr *tracer) (*window, error)
	// layers runs the workload's traced layer decomposition into m.
	layers(b *bench, tr *tracer, m map[string]float64) error
	// check runs the post-window output checks.
	check(b *bench) []string
	close()
}

// bench is the state shared by every workload.
type bench struct {
	opts options
	pool *pool.Pool
	// nproc bounds worker pools, load-generator connections and threads.
	nproc int
	tmp   string
	// checks holds output-check failures found outside a timed window
	// (warm-up digests, layer decompositions).
	checks []string
}

func (b *bench) fail(format string, args ...any) {
	b.checks = append(b.checks, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its driver. There is no serve
// workload: on a shared 2-vCPU host served cold latencies move by 20–70%
// between runs of one seed (each cold campaign rewrites its checkpoint file
// 144 times), more than any bound the benchmark may set. The serving layers
// are measured by the served rung of every traced run instead.
var workloads = map[string]func() driver{
	"table4":         func() driver { return &campaigns{checked: false} },
	"table4-checked": func() driver { return &campaigns{checked: true} },
	"fig7":           func() driver { return &sweeps{} },
}

func main() {
	var o options
	flag.StringVar(&o.root, "root", ".", "checkout root (holds BENCHMARK.json)")
	flag.StringVar(&o.workload, "workload", "", "table4, table4-checked or fig7")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: every op's inputs derive from it")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.BoolVar(&o.probe, "probe", false, "internal: time one set-up and exit")
	flag.Parse()
	o.trace = *trace == 1
	correct, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	if !correct {
		os.Exit(1)
	}
}

// run drives one workload and prints its result; it reports whether every
// output check passed.
func run(o options) (bool, error) {
	mk, ok := workloads[o.workload]
	if !ok {
		return false, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return false, fmt.Errorf("--seconds must be positive, got %d", o.seconds)
	}
	declared, err := readDeclared(o.root, o.trace)
	if err != nil {
		return false, err
	}
	b := &bench{opts: o, nproc: runtime.NumCPU()}
	b.pool = pool.New(b.nproc)
	if b.tmp, err = os.MkdirTemp("", "e2ebench-"); err != nil {
		return false, err
	}
	defer os.RemoveAll(b.tmp)
	w := mk()
	defer w.close()

	if o.probe {
		if err := w.setup(b, nil); err != nil {
			return false, err
		}
		fmt.Println("ready")
		return true, nil
	}
	env := environment(b)
	envJSON, _ := json.Marshal(env)
	fmt.Println("env", string(envJSON))

	m := map[string]float64{}
	var wins []*window
	var mismatches []string
	if !o.trace {
		setupS, err := probeSetup(o)
		if err != nil {
			return false, err
		}
		if err := w.setup(b, nil); err != nil {
			return false, err
		}
		win, err := w.measure(b, time.Duration(o.seconds)*time.Second, nil)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(os.Stderr, "e2ebench: host steal time, taken out of every timing: %.1f%% of the window\n",
			100*win.stolen.Seconds()/(win.wall+win.stolen).Seconds())
		wins = append(wins, win)
		m["setup_s"] = setupS
		m["sim_minstr_per_s"] = win.instr / win.wall.Seconds() / 1e6
		m["cold_p50_ms"] = percentile(win.cold, 50)
		m["cold_p90_ms"] = percentile(win.cold, 90)
		m["peak_rss_mb"] = win.rssMB
	} else {
		for _, name := range declared.names {
			m[name] = 0 // layers this workload does not reach spend nothing
		}
		tr := newTracer()
		if err := w.setup(b, tr); err != nil {
			return false, err
		}
		half := time.Duration(o.seconds) * time.Second / 2
		base, err := w.measure(b, half, nil)
		if err != nil {
			return false, err
		}
		busy := samplePool(b.pool)
		traced, err := w.measure(b, half, tr)
		m["pool.busy_frac"] = busy()
		if err != nil {
			return false, err
		}
		wins = append(wins, base, traced)
		if err := w.layers(b, tr, m); err != nil {
			return false, err
		}
		if err := tlbLadder(tr, m); err != nil {
			return false, err
		}
		rung, err := servedRung(b, tr, m)
		if err != nil {
			return false, err
		}
		wins = append(wins, rung)
		m["trials_per_s"] = float64(base.trials) / base.wall.Seconds()
		m["trace_overhead_pct"] = overheadPct(base, traced)
		if err := tr.dump(filepath.Join(o.root, ".bench_build", "e2ebench", "spans"), o); err != nil {
			return false, err
		}
		tr.summary(os.Stderr)
	}
	var attempted, failed int
	for _, win := range wins {
		attempted += win.attempted
		failed += win.failed
		mismatches = append(mismatches, win.mismatches...)
	}
	post := append(b.checks, w.check(b)...)
	failed += len(post)
	mismatches = append(mismatches, post...)
	if o.trace {
		m["failed_frac"] = float64(failed) / math.Max(1, float64(attempted))
	}
	for name := range m {
		if _, ok := declared.units[name]; !ok {
			return false, fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	res := result{Correct: len(mismatches) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, name := range declared.names {
		v, ok := m[name]
		if !ok {
			return false, fmt.Errorf("metric %s declared in BENCHMARK.json was not measured", name)
		}
		res.Metrics[name] = metric{Value: v, Unit: declared.units[name]}
		fmt.Printf("%-28s %14.6g %s\n", name, v, declared.units[name])
	}
	for _, msg := range mismatches {
		fmt.Fprintln(os.Stderr, "e2ebench: check failed:", msg)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(out))
	return res.Correct, nil
}

// overheadPct compares the traced half with the untraced half by
// simulated throughput, in percent.
func overheadPct(base, traced *window) float64 {
	b, t := base.instr/base.wall.Seconds(), traced.instr/traced.wall.Seconds()
	return (b/t - 1) * 100
}

// declared is the metric list BENCHMARK.json fixes for this mode.
type declared struct {
	names []string
	units map[string]string
}

func readDeclared(root string, trace bool) (declared, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return declared{}, err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return declared{}, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	d := declared{units: map[string]string{}}
	list := spec.EndToEnd
	if trace {
		list = spec.PerLayer
	}
	for _, e := range list {
		d.names = append(d.names, e.Name)
		d.units[e.Name] = e.Unit
	}
	return d, nil
}

// probeSetup times setupProbes fresh child processes from start until
// their warm-up op is done and returns the median, in seconds.
func probeSetup(o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "--root", o.root, "--workload", o.workload,
			"--seed", fmt.Sprint(o.seed), "--probe")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		sw := startWatch()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(stdout)
		ready := false
		for sc.Scan() {
			if sc.Text() == "ready" {
				times = append(times, sw.elapsed().Seconds())
				ready = true
				break
			}
		}
		for sc.Scan() {
		}
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		if !ready {
			return 0, errors.New("set-up probe exited without becoming ready")
		}
	}
	return percentile(times, 50), nil
}

// stopwatch measures how long the benchmark's machine ran: wall time less
// the time the host kept its vCPUs from running although they had work
// (steal time), averaged over vCPUs. On a shared host a neighbour's load
// otherwise moves every timing by tens of percent between runs of the same
// code. Time the program spends idle or waiting is still counted.
type stopwatch struct {
	t0    time.Time
	steal time.Duration
}

func startWatch() stopwatch { return stopwatch{t0: time.Now(), steal: stealPerCPU()} }

func (s stopwatch) elapsed() time.Duration {
	return time.Since(s.t0) - (stealPerCPU() - s.steal)
}

// userHZ is the unit of /proc/stat's counters, which Linux fixes at 100
// ticks per second for user space.
const userHZ = 100

// stealPerCPU is the machine's steal time so far, from the steal column of
// /proc/stat, averaged over its vCPUs; zero where the kernel reports none.
func stealPerCPU() time.Duration {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var total time.Duration
	cpus := 0
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") {
			continue
		}
		if f[0] == "cpu" {
			ticks, err := strconv.ParseUint(f[8], 10, 64)
			if err != nil {
				return 0
			}
			total = time.Duration(ticks) * time.Second / userHZ
		} else {
			cpus++
		}
	}
	if cpus == 0 {
		return 0
	}
	return total / time.Duration(cpus)
}

// samplePool reads the pool's occupancy every millisecond until the
// returned function stops it and reports the mean busy fraction.
func samplePool(p *pool.Pool) func() float64 {
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var sum float64
		var n int
		for {
			select {
			case <-stop:
				if n == 0 {
					done <- 0
				} else {
					done <- sum / float64(n)
				}
				return
			case <-tick.C:
				sum += float64(p.InFlight()) / float64(p.Size())
				n++
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks, or 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// environment is the stamp printed before every result.
func environment(b *bench) map[string]any {
	return map[string]any{
		"cpu_model":        cpuModel(),
		"nproc":            b.nproc,
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"go_version":       runtime.Version(),
		"git_commit":       gitCommit(),
		"source_sha256":    sourceDigest(b.opts.root),
		"workload":         b.opts.workload,
		"seed":             b.opts.seed,
		"seconds":          b.opts.seconds,
		"trace":            b.opts.trace,
		"serve_rate_per_s": serveRate,
		"pool_size":        b.pool.Size(),
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the commit the binary was built from, as the go tool
// stamps it; a checkout without git history has none.
func gitCommit() string {
	bi, _ := debug.ReadBuildInfo()
	rev, dirty := "unknown", ""
	for _, st := range bi.Settings {
		switch {
		case st.Key == "vcs.revision":
			rev = st.Value
		case st.Key == "vcs.modified" && st.Value == "true":
			dirty = "+modified"
		}
	}
	return rev + dirty
}

// sourceDigest identifies the Go sources measured, so results from a tree
// without git history still say which code they describe.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(raw))
		h.Write(raw)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

// digest is the pinned-output fingerprint: SHA-256 of the rendered text.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
