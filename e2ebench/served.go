package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"securetlb/internal/checkpoint"
	"securetlb/internal/job"
	"securetlb/internal/model"
	"securetlb/internal/perf"
	"securetlb/internal/secbench"
	"securetlb/internal/serve"
)

// serveRate is the served rung's arrival rate in submissions per
// second, frozen at half the capacity measured on the 2-vCPU machine the
// benchmark was defined on (about 16/s: above it the backlog grows).
const serveRate = 8.0

// rungWindow is how long the served rung of every traced run drives the
// daemon.
const rungWindow = 3 * time.Second

// mixPattern is the served job mix, repeated in this order: per 10
// arrivals, 4 new secbench campaigns (S: paper designs, a new trial
// count), 2 new Figure 7 sweeps (P: paper designs, a new seed), 2 repeats
// of a completed spec (H: cache hits) and 2 copies of the cold spec just
// before them, sent 10 ms after it (D: they coalesce). Interleaving the
// kinds, rather than shuffling them, keeps the sweeps from bunching up.
const mixPattern = "SDHSPDSHSP"

// failedLatencyMs is the latency a failed or refused submission counts as:
// beyond any limit.
const failedLatencyMs = 1e6

// servePerfDecrypts is the RSA decryption count of the cold served sweeps:
// a fifth of the default, so that a sweep costs about what a campaign
// does and the cold latencies form one population.
const servePerfDecrypts = 10

// coldSecbenchTrials is the smallest trial count a cold served campaign
// uses; each later one adds one, so every cold spec is new.
const coldSecbenchTrials = 100

// submission is one scheduled request and what the generator saw of it.
type submission struct {
	spec  job.Spec
	due   time.Time
	kind  byte // 'S', 'P' cold; 'H' repeat; 'D' duplicate
	seq   int64
	sent  time.Time
	acked time.Time // POST /jobs answered
	first time.Time // first NDJSON line
	done  time.Time // result line
	id    string
	class string // "cold", "hit", "coalesced"
	ok    bool
	err   string
	res   json.RawMessage
}

// served is the served rung: an open loop of HTTP submissions against an
// in-process tlbserved (job.Open + serve.New on a loopback listener).
type served struct {
	dir    string
	queue  *job.Queue
	runner *serve.CampaignRunner
	srv    *http.Server
	client *http.Client
	url    string

	windows   int
	nextTrial int
	nextSeed  uint64
	doneSpecs []job.Spec // completed specs a repeat may pick
	cold      []*submission

	// runs records each execution's start and end when tracing.
	tracing atomic.Pointer[tracer]
	runsMu  sync.Mutex
	runs    map[string][2]time.Time
	traced  []*submission

	perfInstr float64 // instructions of one default perf job
	perTrial  map[secbench.Design]uint64
}

func (s *served) setup(b *bench, tr *tracer) error {
	var err error
	if s.dir, err = os.MkdirTemp(b.tmp, "serve-"); err != nil {
		return err
	}
	s.nextTrial = coldSecbenchTrials + seedOffset(b.opts.seed)
	s.nextSeed = uint64(b.opts.seed)<<16 + 1<<15
	s.runner = &serve.CampaignRunner{Dir: s.dir, Pool: b.pool}
	var qr job.Runner = s.runner
	if tr != nil {
		s.runs = map[string][2]time.Time{}
		qr = job.RunnerFunc(s.timedRun)
	}
	if s.queue, err = job.Open(s.dir, qr); err != nil {
		return err
	}
	s.queue.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	// HTTP/2 without TLS lets the generator keep every in-flight stream on
	// at most nproc connections.
	var sp, cp http.Protocols
	sp.SetHTTP1(true)
	sp.SetUnencryptedHTTP2(true)
	cp.SetUnencryptedHTTP2(true)
	s.srv = &http.Server{Handler: serve.New(s.queue, s.runner).Handler(), Protocols: &sp}
	go s.srv.Serve(ln)
	s.url = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{Protocols: &cp, MaxConnsPerHost: b.nproc}}

	// Warm-up: the default campaign and sweep, served and pinned.
	for _, w := range []struct {
		key  string
		spec job.Spec
	}{{"serve/secbench", job.Spec{Kind: job.KindSecbench}}, {"serve/perf", job.Spec{Kind: job.KindPerf}}} {
		sub := &submission{spec: w.spec, due: time.Now()}
		s.do(context.Background(), sub, nil)
		if !sub.ok {
			return fmt.Errorf("warm-up %s: %s", w.key, sub.err)
		}
		var res serve.Result
		if err := json.Unmarshal(sub.res, &res); err != nil {
			return err
		}
		checkPinned(b, w.key, res.Output)
		s.doneSpecs = append(s.doneSpecs, w.spec)
	}
	return nil
}

// timedRun is the queue's runner when tracing: the campaign runner, timed.
func (s *served) timedRun(ctx context.Context, spec job.Spec, publish func(job.Event)) (json.RawMessage, error) {
	start := time.Now()
	tr := s.tracing.Load()
	sp := tr.begin("job.Runner.Run", -1, 0)
	raw, err := s.runner.Run(ctx, spec, publish)
	tr.end(sp)
	if tr != nil {
		id, _ := spec.ID()
		s.runsMu.Lock()
		s.runs[id] = [2]time.Time{start, time.Now()}
		s.runsMu.Unlock()
	}
	return raw, err
}

// schedule draws one window's arrivals: serveRate × d submissions at
// uniformly random times (a Poisson process conditioned on its count), the
// job mix following mixPattern from a seeded starting point.
func (s *served) schedule(b *bench, d time.Duration, start time.Time) []*submission {
	rng := rand.New(rand.NewSource(b.opts.seed*1000 + int64(s.windows)))
	s.windows++
	n := int(serveRate*d.Seconds() + 0.5)
	rot := rng.Intn(len(mixPattern))
	offsets := make([]time.Duration, n)
	for i := range offsets {
		offsets[i] = time.Duration(rng.Int63n(int64(d)))
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
	var subs []*submission
	var lastCold *submission
	// Specs cold-submitted this window become repeat candidates once they
	// are 3 s old, long after they complete.
	type past struct {
		spec job.Spec
		due  time.Time
	}
	var recent []past
	for i := range offsets {
		k := mixPattern[(rot+i)%len(mixPattern)]
		sub := &submission{kind: k, due: start.Add(offsets[i])}
		switch k {
		case 'S':
			sub.spec = job.Spec{Kind: job.KindSecbench, Trials: s.nextTrial}
			s.nextTrial++
		case 'P':
			sub.spec = job.Spec{Kind: job.KindPerf, Seed: s.nextSeed, Decrypts: servePerfDecrypts}
			s.nextSeed++
		case 'H':
			for len(recent) > 0 && sub.due.Sub(recent[0].due) > 3*time.Second {
				s.doneSpecs = append(s.doneSpecs, recent[0].spec)
				recent = recent[1:]
			}
			sub.spec = s.doneSpecs[rng.Intn(len(s.doneSpecs))]
		case 'D':
			if lastCold == nil {
				sub.spec = s.doneSpecs[0] // nothing in flight yet: a hit
				break
			}
			sub.spec = lastCold.spec
			sub.due = lastCold.due.Add(10 * time.Millisecond)
		}
		if k == 'S' || k == 'P' {
			lastCold = sub
			recent = append(recent, past{sub.spec, sub.due})
		}
		subs = append(subs, sub)
	}
	for _, p := range recent {
		s.doneSpecs = append(s.doneSpecs, p.spec)
	}
	return subs
}

// do submits one spec and follows its stream to the result.
func (s *served) do(ctx context.Context, sub *submission, tr *tracer) {
	if wait := time.Until(sub.due); wait > 0 {
		time.Sleep(wait)
	}
	sub.sent = time.Now()
	body, _ := json.Marshal(sub.spec)
	sp := tr.begin("serve.POST /jobs", -1, sub.seq)
	resp, err := s.client.Post(s.url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		tr.end(sp)
		sub.err = err.Error()
		return
	}
	var ack serve.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	sub.acked = time.Now()
	tr.end(sp)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK || err != nil {
		sub.err = fmt.Sprintf("POST /jobs: status %d (%v)", resp.StatusCode, err)
		return
	}
	sub.id = ack.ID
	switch {
	case ack.Cached:
		sub.class = "hit"
	case ack.Coalesced:
		sub.class = "coalesced"
	default:
		sub.class = "cold"
	}
	sp = tr.begin("serve.GET /stream", -1, sub.seq)
	defer tr.end(sp)
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/jobs/"+ack.ID+"/stream", nil)
	resp, err = s.client.Do(req)
	if err != nil {
		sub.err = err.Error()
		return
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if sub.first.IsZero() {
			sub.first = time.Now()
		}
		var ev job.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			sub.err = err.Error()
			return
		}
		switch {
		case ev.Type == "result":
			sub.done, sub.res, sub.ok = time.Now(), ev.Result, true
			return
		case ev.Type == "state" && (ev.State == job.StateFailed || ev.State == job.StateCanceled):
			sub.err = fmt.Sprintf("job %s %s: %s", ev.Job, ev.State, ev.Error)
			return
		}
	}
	sub.err = fmt.Sprintf("stream of %s ended without a result (%v)", ack.ID, sc.Err())
}

var subSeq atomic.Int64

func (s *served) measure(b *bench, d time.Duration, tr *tracer) (*window, error) {
	start := time.Now().Add(20 * time.Millisecond)
	subs := s.schedule(b, d, start)
	s.tracing.Store(tr)
	ctx, cancel := context.WithTimeout(context.Background(), d+120*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, sub := range subs {
		sub.seq = subSeq.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.do(ctx, sub, tr)
		}()
	}
	wg.Wait()
	s.tracing.Store(nil)
	w := &window{}
	last := start
	for _, sub := range subs {
		w.attempted++
		lat := float64(sub.done.Sub(sub.due)) / float64(time.Millisecond)
		if !sub.ok {
			w.fail("submission %d (%s): %s", sub.seq, string(sub.kind), sub.err)
			lat = failedLatencyMs
			if sub.class == "" {
				sub.class = map[byte]string{'S': "cold", 'P': "cold", 'H': "hit", 'D': "coalesced"}[sub.kind]
			}
		}
		if sub.done.After(last) {
			last = sub.done
		}
		switch sub.class {
		case "cold":
			w.cold = append(w.cold, lat)
			if sub.ok {
				s.cold = append(s.cold, sub)
				if sub.spec.Kind == job.KindSecbench {
					w.trials += 2 * sub.spec.Trials * len(model.Enumerate()) * len(paperDesigns)
				}
				instr, err := s.instructions(b, sub.spec)
				if err != nil {
					return nil, err
				}
				w.instr += instr
			}
		case "hit":
			w.hits = append(w.hits, lat)
		}
		if sub.ok && sub.spec.Kind == job.KindSecbench {
			s.checkCampaign(w, sub)
		}
	}
	w.wall = last.Sub(start)
	byKind := map[byte][]float64{}
	for _, sub := range subs {
		if sub.ok {
			byKind[sub.kind] = append(byKind[sub.kind], float64(sub.done.Sub(sub.due))/float64(time.Millisecond))
		}
	}
	for _, k := range []byte("SPHD") {
		fmt.Fprintf(os.Stderr, "e2ebench: serve %c: %d done, p50 %.1f ms, p90 %.1f ms\n",
			k, len(byKind[k]), percentile(byKind[k], 50), percentile(byKind[k], 90))
	}
	if tr != nil {
		s.traced = subs
	}
	return w, nil
}

// instructions is the simulated instruction count of one cold execution.
func (s *served) instructions(b *bench, spec job.Spec) (float64, error) {
	if spec.Kind == job.KindPerf {
		if s.perfInstr == 0 {
			for _, d := range []perf.Design{perf.SA, perf.SP, perf.RF} {
				rows, err := perf.Figure7Pool(context.Background(), d, false, servePerfDecrypts, 1, b.pool, nil)
				if err != nil {
					return 0, err
				}
				for _, r := range rows {
					s.perfInstr += float64(r.Metrics.Instructions)
				}
			}
		}
		return s.perfInstr, nil
	}
	if s.perTrial == nil {
		var err error
		if s.perTrial, err = instructionsPerTrial(paperDesigns, false); err != nil {
			return 0, err
		}
	}
	var sum float64
	for _, d := range paperDesigns {
		sum += float64(spec.Normalize().Trials) * float64(s.perTrial[d])
	}
	return sum, nil
}

var paperDesigns = []secbench.Design{secbench.DesignSA, secbench.DesignSP, secbench.DesignRF}

// checkCampaign checks a served campaign's verdicts and quarantine count.
func (s *served) checkCampaign(w *window, sub *submission) {
	var res serve.Result
	if err := json.Unmarshal(sub.res, &res); err != nil {
		w.fail("submission %d: result: %v", sub.seq, err)
		return
	}
	if res.Quarantined != 0 {
		w.fail("submission %d: %d quarantined trials", sub.seq, res.Quarantined)
	}
	for _, d := range paperDesigns {
		line := fmt.Sprintf("%s defends %d/24 vulnerability types", d, expectDefended[d])
		if !strings.Contains(res.Output, line) {
			w.fail("submission %d (trials %d): missing %q", sub.seq, sub.spec.Trials, line)
		}
	}
}

// check re-runs a sample of the cold jobs directly through the campaign
// runner, after the timed window, and requires byte-identical results.
func (s *served) check(b *bench) []string {
	var out []string
	dir, err := os.MkdirTemp(b.tmp, "direct-")
	if err != nil {
		return []string{err.Error()}
	}
	direct := &serve.CampaignRunner{Dir: dir, Pool: b.pool}
	picked := map[string]int{}
	for _, sub := range s.cold {
		if picked[sub.spec.Kind] >= 2 {
			continue
		}
		picked[sub.spec.Kind]++
		raw, err := direct.Run(context.Background(), sub.spec.Normalize(), func(job.Event) {})
		if err != nil {
			out = append(out, fmt.Sprintf("direct run of %+v: %v", sub.spec, err))
			continue
		}
		if !bytes.Equal(raw, sub.res) {
			out = append(out, fmt.Sprintf("served result of %+v differs from the direct run", sub.spec))
		}
	}
	if len(s.cold) > 0 && picked[job.KindSecbench]+picked[job.KindPerf] == 0 {
		out = append(out, "no cold job to check")
	}
	return out
}

// layers reports the traced window's job and HTTP timings and decomposes
// the served campaign's checkpointing.
func (s *served) layers(b *bench, tr *tracer, m map[string]float64) error {
	var wait, exec, finish, submit, first, late, coalesced []float64
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	s.runsMu.Lock()
	for _, sub := range s.traced {
		late = append(late, ms(sub.sent.Sub(sub.due)))
		if !sub.ok {
			continue
		}
		submit = append(submit, ms(sub.acked.Sub(sub.sent)))
		first = append(first, ms(sub.first.Sub(sub.acked)))
		switch sub.class {
		case "cold":
			if r, ok := s.runs[sub.id]; ok {
				wait = append(wait, ms(r[0].Sub(sub.sent)))
				exec = append(exec, ms(r[1].Sub(r[0])))
				finish = append(finish, ms(sub.done.Sub(r[1])))
			}
		case "coalesced":
			coalesced = append(coalesced, ms(sub.done.Sub(sub.due)))
		}
	}
	s.runsMu.Unlock()
	qm := s.queue.Metrics()
	m["job.queue_wait_ms"] = mean(wait)
	m["job.exec_ms"] = mean(exec)
	m["job.finish_ms"] = mean(finish)
	m["job.coalesced_ms"] = percentile(coalesced, 50)
	m["job.hit_frac"] = float64(qm.CacheHits) / float64(qm.Submissions)
	m["serve.submit_ms"] = percentile(submit, 50)
	m["serve.first_event_ms"] = percentile(first, 50)
	m["serve.gen_late_ms"] = percentile(late, 90)

	// Spec fingerprinting: the queue and the runner each compute a
	// submission's ID.
	const idCalls = 2
	t0 := time.Now()
	for i := 0; i < 1000; i++ {
		if _, err := (job.Spec{Kind: job.KindSecbench, Trials: i + 1}).ID(); err != nil {
			return err
		}
	}
	idTime := time.Since(t0)
	tr.record("fingerprint.Spec.ID", -1, 0, t0, idTime)
	m["fingerprint.spec_us"] = idCalls * float64(idTime) / 1000 / float64(time.Microsecond)

	return s.checkpointLayers(b, tr, m)
}

// checkpointLayers runs a cold served campaign's work directly, with and
// without the every-unit checkpoint the daemon uses, then re-records that
// checkpoint's units one by one, measuring each Record (which rewrites the
// file) and the bytes written.
func (s *served) checkpointLayers(b *bench, tr *tracer, m map[string]float64) error {
	var with, without []float64
	var ckPath string
	for rep := 0; rep < 3; rep++ {
		for _, ck := range []bool{false, true} {
			trials := s.nextTrial
			s.nextTrial++
			opts := secbench.RunOptions{Pool: b.pool}
			if ck {
				ckPath = filepath.Join(s.dir, fmt.Sprintf("layers-%d.ckpt.json", rep))
				f, err := checkpoint.Open(ckPath, "e2ebench", 1, false)
				if err != nil {
					return err
				}
				opts.Checkpoint = f
			}
			name := "secbench.RunCampaign/bare"
			if ck {
				name = "secbench.RunCampaign/checkpointed"
			}
			sp := tr.begin(name, -1, 0)
			t0 := time.Now()
			for _, d := range paperDesigns {
				cfg := secbench.DefaultConfig(d)
				cfg.Trials = trials
				if _, err := cfg.RunCampaign(context.Background(), model.Enumerate(), opts); err != nil {
					return err
				}
			}
			dt := float64(time.Since(t0)) / float64(time.Millisecond)
			tr.end(sp)
			if ck {
				with = append(with, dt)
			} else {
				without = append(without, dt)
			}
		}
	}
	m["checkpoint.overhead_ms"] = percentile(with, 50) - percentile(without, 50)

	raw, err := os.ReadFile(ckPath)
	if err != nil {
		return err
	}
	var st struct {
		Units map[string]json.RawMessage `json:"units"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return err
	}
	replay := filepath.Join(s.dir, "rerecord.ckpt.json")
	f, err := checkpoint.Open(replay, "e2ebench", 1, false)
	if err != nil {
		return err
	}
	var bytesWritten int64
	var recTime time.Duration
	for key, unit := range st.Units {
		t0 := time.Now()
		if err := f.Record(key, unit); err != nil {
			return err
		}
		dt := time.Since(t0)
		recTime += dt
		tr.record("checkpoint.File.Record", -1, 0, t0, dt)
		fi, err := os.Stat(replay)
		if err != nil {
			return err
		}
		bytesWritten += fi.Size()
	}
	m["checkpoint.record_us"] = float64(recTime) / float64(len(st.Units)) / float64(time.Microsecond)
	m["checkpoint.bytes_per_job"] = float64(bytesWritten)
	return nil
}

// servedRung measures the serving layers in a traced run: an in-process
// daemon driven at serveRate for rungWindow.
func servedRung(b *bench, tr *tracer, m map[string]float64) (*window, error) {
	s := &served{}
	defer s.close()
	if err := s.setup(b, tr); err != nil {
		return nil, err
	}
	w, err := s.measure(b, rungWindow, tr)
	if err != nil {
		return nil, err
	}
	if err := s.layers(b, tr, m); err != nil {
		return nil, err
	}
	m["hit_p50_ms"] = percentile(w.hits, 50)
	for _, msg := range s.check(b) {
		w.fail("%s", msg)
	}
	return w, nil
}

func (s *served) close() {
	if s.queue != nil {
		s.queue.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}
