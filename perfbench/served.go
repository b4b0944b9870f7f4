package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ggpdes"
	"ggpdes/internal/serve/client"
)

// The served workload drives a ggserved child process in a closed loop
// from servedClients clients (one per CPU of the reference host, so the
// load generator never has more threads or connections than nproc).
// Each client submits rounds of four jobs: three unique configs (cold)
// and then a repeat of the round's first job, finished and still in the
// 256-entry cache (a hit). Only the server's "cached" flag classes a
// submission as a hit.
const (
	servedClients = 2
	servedCache   = 256
	// servedRetain bounds the finished jobs ggserved keeps queryable.
	// Every run finishes more than this many, so the server's memory
	// reaches its plateau whatever the host's speed, and peak_rss_mb
	// does not grow with throughput.
	servedRetain = 1024
	// servedPoll is the status poll while a cold job runs: far below
	// the ≈13 ms a job takes, so completion is seen within 1 ms.
	servedPoll = time.Millisecond
	// servedColdQ and servedHitQ are the tail percentiles the run's
	// summary lines report (not gated metrics, see README.md).
	servedColdQ = 0.99
	servedHitQ  = 0.95
	// servedSimStatJobs is how many cold jobs per client, in submission
	// order, the simulated statistics are summed over: the same jobs in
	// every run of a seed.
	servedSimStatJobs = 8
)

// servedConfig is one small job: PHOLD 1-4 on the 8-core × 2-SMT
// machine, ≈13 ms of host time.
func servedConfig(seed uint64) ggpdes.Config {
	return ggpdes.Config{
		Model: ggpdes.PHOLD{LPsPerThread: 4, Imbalance: 4}, Threads: 8,
		System: ggpdes.GGPDES, GVT: ggpdes.WaitFree,
		Machine: ggpdes.Machine{Cores: 8, SMTWidth: 2}, EndTime: endTime, Seed: seed,
	}
}

// jobSeed gives every cold submission of a run its own model seed.
func jobSeed(runSeed uint64, client, round, pos int) uint64 {
	x := runSeed<<40 ^ uint64(client)<<36 ^ uint64(round*4+pos)
	// splitmix64 finalizer: neighbouring inputs give unrelated seeds.
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// job is one submission and what came back.
type job struct {
	client, round, pos int
	cfg                ggpdes.Config
	origin             *job // the cold job a repeat repeats
	meta               client.JobMeta
	cached             bool
	res                *ggpdes.Results
	resJSON            []byte
	err                error
	latency            time.Duration
	end                time.Time
}

// server is a running ggserved child.
type server struct {
	cmd    *exec.Cmd
	cl     *client.Client
	base   string
	pprof  string
	stderr bytes.Buffer // read only after exited is closed
	exited chan struct{}
}

func ggservedPath() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	return filepath.Join(filepath.Dir(exe), "ggserved"), nil
}

// startServer launches ggserved and waits until it answers healthz.
func startServer(bin string, n int, withPprof bool) (*server, error) {
	dir, err := filepath.Abs(filepath.Join(workDir, fmt.Sprintf("served-%d", n)))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	args := []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-cache-entries", fmt.Sprint(servedCache), "-retain-jobs", fmt.Sprint(servedRetain),
		"-checkpoint-root", filepath.Join(dir, "ckpt")}
	s := &server{exited: make(chan struct{})}
	if withPprof {
		if s.pprof, err = freePort(); err != nil {
			return nil, err
		}
		args = append(args, "-pprof-addr", s.pprof)
	}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Env = append(os.Environ(), "TMPDIR="+dir)
	s.cmd.Stderr = &s.stderr
	// Should the benchmark itself be killed, the server goes with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ggserved: %w", err)
	}
	go func() {
		_ = s.cmd.Wait() // the exit status is reported through stderr
		close(s.exited)
	}()
	fail := func(err error) (*server, error) {
		s.stop()
		return nil, fmt.Errorf("ggserved: %w: %s", err, strings.TrimSpace(s.stderr.String()))
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.base == "" {
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			s.base = "http://" + strings.TrimSpace(string(b))
			break
		}
		select {
		case <-s.exited:
			return fail(errors.New("exited during start-up"))
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fail(errors.New("no address after 30s"))
		}
	}
	s.cl = client.New(s.base, nil)
	s.cl.Poll = servedPoll
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := s.cl.Healthz(ctx)
		cancel()
		if err == nil {
			return s, nil
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("not healthy after 30s: %v", err))
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the server with SIGTERM and waits for it to exit,
// killing it if the drain takes more than 20 s.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// get fetches a URL with a timeout and returns its body.
func get(url string, timeout time.Duration) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// totalAlloc reads the server's cumulative heap allocation from expvar.
func (s *server) totalAlloc() (uint64, error) {
	b, err := get(s.base+"/debug/vars", 10*time.Second)
	if err != nil {
		return 0, err
	}
	var v struct {
		Memstats struct{ TotalAlloc uint64 } `json:"memstats"`
	}
	if err := json.Unmarshal(b, &v); err != nil {
		return 0, err
	}
	return v.Memstats.TotalAlloc, nil
}

func (s *server) counters() (map[string]uint64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := s.cl.Stats(ctx)
	return st.Counters, err
}

// servedLoop is one closed-loop phase.
type servedLoop struct {
	jobs    []*job
	elapsed time.Duration
}

// progress is what a closed-loop phase has done so far: the rounds the
// asking client finished, the elapsed time, and the cold, hit and
// failed submissions of all clients.
type progress struct {
	rounds             int
	elapsed            time.Duration
	cold, hits, failed int64
}

// run drives the closed loop until stop, asked by each client before
// every round, says the phase is over. Spans go to tr when it is
// non-nil.
func (s *server) run(runSeed uint64, firstRound int, tr *tracer, stop func(progress) bool) *servedLoop {
	var (
		wg                 sync.WaitGroup
		mu                 sync.Mutex
		cold, hits, failed atomic.Int64
		out                = &servedLoop{}
		start              = time.Now()
	)
	done := func(round int) bool {
		return stop(progress{round - firstRound, time.Since(start), cold.Load(), hits.Load(), failed.Load()})
	}
	for c := 0; c < servedClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := firstRound; !done(round); round++ {
				var first *job
				for pos := 0; pos < 4; pos++ {
					j := &job{client: c, round: round, pos: pos}
					if pos < 3 {
						j.cfg = servedConfig(jobSeed(runSeed, c, round, pos))
					} else {
						j.cfg, j.origin = first.cfg, first
					}
					s.submit(j, tr, round*servedClients+c)
					if pos == 0 {
						first = j
					}
					switch {
					case j.err != nil:
						failed.Add(1)
					case j.cached:
						hits.Add(1)
					default:
						cold.Add(1)
					}
					mu.Lock()
					out.jobs = append(out.jobs, j)
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	return out
}

// submit sends one job and waits for its result: submit, then (unless
// the cache answered) wait for completion, then fetch the result.
func (s *server) submit(j *job, tr *tracer, run int) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	root := tr.begin("job", 0, run)
	defer tr.end(root)
	t0 := time.Now()
	id := tr.begin("client.Submit", root, run)
	meta, err := s.cl.Submit(ctx, client.JobSpec{Config: j.cfg})
	tr.end(id)
	if err != nil {
		j.err = err
		return
	}
	j.cached = meta.Cached
	if !meta.Terminal() {
		id = tr.begin("client.Wait", root, run)
		meta, err = s.cl.Wait(ctx, meta.ID)
		tr.end(id)
		if err != nil {
			j.err = err
			return
		}
	}
	if meta.State != "done" {
		j.err = fmt.Errorf("job %s ended %s", meta.ID, meta.State)
		return
	}
	id = tr.begin("client.Result", root, run)
	meta, res, err := s.cl.Result(ctx, meta.ID)
	tr.end(id)
	j.end = time.Now()
	j.latency = j.end.Sub(t0)
	if err == nil && res == nil {
		err = errors.New("done job returned no results")
	}
	if err != nil {
		j.err = err
		return
	}
	j.meta, j.res = meta, res
	j.resJSON, j.err = json.Marshal(res)
}

func runServed(o opts) (*report, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	bin, err := ggservedPath()
	if err != nil {
		return nil, err
	}
	r := &report{metrics: map[string]float64{}}
	setup, srv, err := setUpServer(bin, 0, o.trace)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	before, err := srv.counters()
	if err != nil {
		return nil, err
	}
	if o.trace {
		err = tracedServed(o, r, srv, before)
	} else {
		err = untracedServed(o, r, bin, srv, setup, before)
	}
	return r, err
}

// setUpServer is one set-up, timed: start ggserved, wait until it
// answers, and run one warm-up round per client, so that the first
// measured jobs find a warm heap and warm connections. The warm-up jobs
// are the same in every run (run seed 0, round -1, which no measured
// round reuses), so set-up does not depend on --seed.
func setUpServer(bin string, n int, withPprof bool) (float64, *server, error) {
	t0 := time.Now()
	s, err := startServer(bin, n, withPprof)
	if err != nil {
		return 0, nil, err
	}
	s.run(0, -1, nil, func(p progress) bool { return p.rounds == 1 })
	return time.Since(t0).Seconds(), s, nil
}

// split classes the loop's jobs and counts them as operations.
func split(t *tally, jobs []*job) (cold, hits []*job) {
	for _, j := range jobs {
		var apiErr *client.Error
		switch {
		case errors.As(j.err, &apiErr):
			t.op(fmt.Sprintf("submission (HTTP %d)", apiErr.HTTPStatus), j.err)
		case !t.op("submission", j.err):
		case j.cached:
			hits = append(hits, j)
		default:
			cold = append(cold, j)
		}
	}
	return cold, hits
}

func latenciesMS(jobs []*job) []float64 {
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = float64(j.latency) / 1e6
	}
	return out
}

func committedRate(cold []*job, elapsed time.Duration) float64 {
	var n uint64
	for _, j := range cold {
		n += j.res.CommittedEvents
	}
	return float64(n) / elapsed.Seconds()
}

// untracedServed measures the end-to-end metrics. The closed loop runs
// in setupReps segments of about seconds/setupReps each; between two
// segments the clients pause while one more set-up of a fresh ggserved
// is timed and that server stopped. The set-ups' median so rests on the
// same stretch of host time as the loop's medians; setup is the
// measured server's own.
func untracedServed(o opts, r *report, bin string, srv *server, setup float64, before map[string]uint64) error {
	minCold, minHits := int64(samplesForTail(servedColdQ)), int64(samplesForTail(servedHitQ))
	setups := []float64{setup}
	l := &servedLoop{}
	var nCold, nHits, nFailed int64
	for seg := 0; seg < setupReps; seg++ {
		if seg > 0 {
			x, s, err := setUpServer(bin, seg, false)
			if err != nil {
				return err
			}
			s.stop()
			setups = append(setups, x)
		}
		// Every segment numbers its rounds from its own base, so every
		// cold job stays unique. Past the time limit the last segment
		// continues only until both tails have their samples, and not
		// at all once a submission has failed.
		last := seg == setupReps-1
		sl := srv.run(o.seed, seg<<20, nil, func(p progress) bool {
			if p.elapsed.Seconds() < o.seconds/setupReps {
				return false
			}
			return !last || nCold+p.cold >= minCold && nHits+p.hits >= minHits || nFailed+p.failed > 0
		})
		l.jobs, l.elapsed = append(l.jobs, sl.jobs...), l.elapsed+sl.elapsed
		for _, j := range sl.jobs {
			switch {
			case j.err != nil:
				nFailed++
			case j.cached:
				nHits++
			default:
				nCold++
			}
		}
	}
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	cold, hits := split(&r.tally, l.jobs)
	coldMS, hitMS := latenciesMS(cold), latenciesMS(hits)
	m := r.metrics
	m["committed_ev_per_s"] = committedRate(cold, l.elapsed)
	m["jobs_per_s"] = float64(len(cold)+len(hits)) / l.elapsed.Seconds()
	m["cold_ms_p50"] = median(coldMS)
	m["hit_ms_p50"] = median(hitMS)
	// No job here crashes, so ggserved never resumes one from a
	// snapshot: a stand-in, like resume_ms_p50 on oversub and dense.
	m["resume_ms_p50"] = m["cold_ms_p50"]
	m["peak_rss_mb"] = rss
	m["setup_s"] = median(setups)
	printSamples("cold_ms", coldMS, servedColdQ)
	printTail("cold_ms", coldMS, servedColdQ)
	printSamples("hit_ms", hitMS, servedHitQ)
	printTail("hit_ms", hitMS, servedHitQ)
	fmt.Println("resume_ms_p50 is a stand-in: no job crashes, so none resumes from a snapshot")
	printSamples("setup_s (ggserved start)", setups, 0)
	printServedSimStats(l.jobs)
	return verifyServed(&r.tally, srv, before, cold, hits)
}

// firstColdJobs returns each client's first servedSimStatJobs unique
// submissions: the same configs in every run of a seed.
func firstColdJobs(jobs []*job) []*job {
	var out []*job
	for _, j := range jobs {
		if j.origin == nil && j.err == nil && !j.cached && j.round*3+j.pos < servedSimStatJobs {
			out = append(out, j)
		}
	}
	return out
}

// resultsOf returns the jobs' Results.
func resultsOf(jobs []*job) []*ggpdes.Results {
	out := make([]*ggpdes.Results, len(jobs))
	for i, j := range jobs {
		out[i] = j.res
	}
	return out
}

func printServedSimStats(jobs []*job) {
	first := firstColdJobs(jobs)
	s := sumResults(resultsOf(first))
	fmt.Printf("simulated statistics (sum of the first %d unique jobs): committed=%d processed=%d rolled_back=%d gvt_rounds=%d deactivations=%d ctx_switches=%d\n",
		len(first), s.CommittedEvents, s.ProcessedEvents, s.RolledBackEvents, s.GVTRounds, s.Deactivations, s.ContextSwitches)
}

// verifyServed checks every result against an untimed in-process run of
// the same config, every hit against its cold original, and the
// server's own count of simulations against the cold jobs.
func verifyServed(t *tally, srv *server, before map[string]uint64, cold, hits []*job) error {
	after, err := srv.counters()
	if !t.op("GET /v2/stats", err) {
		return nil
	}
	delta := func(k string) int { return int(after[k] - before[k]) }
	var simErr error
	if n := delta("serve.simulations"); n != len(cold) {
		simErr = fmt.Errorf("server ran %d simulations for %d cold jobs", n, len(cold))
	}
	t.check("one simulation per cold job", simErr)
	for _, h := range hits {
		o := h.origin
		var err error
		if o.err != nil || o.resJSON == nil {
			err = fmt.Errorf("cold original failed: %v", o.err)
		} else {
			err = bytesEqual(h.resJSON, o.resJSON)
		}
		t.check("hit equals its cold original", err)
	}
	// The renewal expectation is tested once, on the cold jobs' total:
	// with a thousand and more jobs per run, a 4σ test per job would
	// fail on chance alone in a few percent of runs.
	one := expectPHOLD(8*4, endTime) // a served job's 8 threads × 4 LPs
	var total uint64
	for _, j := range cold {
		total += j.res.CommittedEvents
	}
	n := float64(len(cold))
	t.check("cold jobs' committed total near the renewal expectation",
		pholdCount{Mean: n * one.Mean, Sigma: math.Sqrt(n) * one.Sigma}.check(total))
	// Reference runs, split across servedClients workers.
	type verdict struct{ run, base, acct, gvt error }
	verdicts := make([]verdict, len(cold))
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < servedClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cold) {
					return
				}
				j, v := cold[i], &verdicts[i]
				ref, err := ggpdes.Run(j.cfg)
				if err == nil {
					err = sameJSON(ref, j.resJSON)
				}
				v.run = err
				base := j.cfg
				base.System, base.GVT = ggpdes.Baseline, ggpdes.Barrier
				if b, err := ggpdes.Run(base); err != nil {
					v.base = err
				} else {
					v.base = sameCount(j.res.CommittedEvents, b.CommittedEvents)
				}
				if j.res.ProcessedEvents != j.res.CommittedEvents+j.res.RolledBackEvents {
					v.acct = errors.New("processed != committed + rolled back")
				}
				if j.res.FinalGVT != j.cfg.EndTime {
					v.gvt = fmt.Errorf("final GVT %v", j.res.FinalGVT)
				}
			}
		}()
	}
	wg.Wait()
	for _, v := range verdicts {
		t.check("served result equals an in-process run", v.run)
		t.check("committed equals the Baseline/Barrier run", v.base)
		t.check("processed = committed + rolled back", v.acct)
		t.check("final GVT is the end time", v.gvt)
	}
	return nil
}

// tracedPairs is how many untraced and traced phases a traced served
// run alternates.
const tracedPairs = 3

// tracedServed alternates untraced phases with traced ones, each about
// seconds/6 long. A traced phase records spans around every client call
// while ggserved profiles itself, and reads the server's cumulative
// allocation just before the profile starts and just after it ends.
// Alternating phases keeps the host's drift out of the tracing overhead.
func tracedServed(o opts, r *report, srv *server, before map[string]uint64) error {
	phase := int(o.seconds / (2 * tracedPairs))
	if phase < 1 {
		phase = 1
	}
	tr := newTracer()
	var (
		base, traced         []*job
		baseTime, tracedTime time.Duration
		profiles             []string
		windows              [][2]time.Time
		alloc                uint64
	)
	for i := 0; i < 2*tracedPairs; i++ {
		// Every phase numbers its rounds from its own base, so every
		// cold job stays unique.
		first := i << 20
		if i%2 == 0 {
			l := srv.run(o.seed, first, nil, func(p progress) bool { return p.elapsed >= time.Duration(phase)*time.Second })
			base, baseTime = append(base, l.jobs...), baseTime+l.elapsed
			continue
		}
		alloc0, err := srv.totalAlloc()
		if err != nil {
			return err
		}
		var (
			start            = time.Now()
			end              time.Time
			profData         []byte
			alloc1           uint64
			profErr, alloErr error
			profDone         atomic.Bool
			done             = make(chan struct{})
		)
		go func() {
			defer close(done)
			profData, profErr = get(fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", srv.pprof, phase),
				time.Duration(phase+30)*time.Second)
			alloc1, alloErr = srv.totalAlloc()
			end = time.Now()
			profDone.Store(true)
		}()
		l := srv.run(o.seed, first, tr, func(progress) bool { return profDone.Load() })
		<-done
		if err := firstErr(profErr, alloErr); err != nil {
			return fmt.Errorf("ggserved profile: %w", err)
		}
		traced, tracedTime = append(traced, l.jobs...), tracedTime+l.elapsed
		alloc += alloc1 - alloc0
		windows = append(windows, [2]time.Time{start, end})
		path, err := writeProfile(profData, fmt.Sprintf("served-seed%d-phase%d.pprof", o.seed, i))
		if err != nil {
			return err
		}
		profiles = append(profiles, path)
	}
	p, err := readProfiles(profiles...)
	if err != nil {
		return err
	}
	fmt.Printf("profiles: %d traced phases, %s ...\n", len(profiles), profiles[0])
	baseCold, baseHits := split(&r.tally, base)
	cold, hits := split(&r.tally, traced)
	// The profiles and the allocation reads cover the same windows; the
	// cold jobs that finished inside them are what both are divided by.
	var inWindow []*job
	for _, j := range cold {
		for _, w := range windows {
			if !j.end.Before(w[0]) && !j.end.After(w[1]) {
				inWindow = append(inWindow, j)
				break
			}
		}
	}
	if len(inWindow) == 0 {
		return errors.New("no cold job finished inside a profile window")
	}
	first := sumResults(resultsOf(firstColdJobs(base)))
	n := float64(len(firstColdJobs(base)))
	win := sumResults(resultsOf(inWindow))
	ev := repEvents{processed: float64(first.ProcessedEvents) / n, rolledBack: float64(first.RolledBackEvents) / n}
	m := r.metrics
	per := float64(len(inWindow))
	layers := p.layerNanos()
	recordLayers(m, layers, per, ev)
	m["ggpdes.rebuild_ms"] = float64(p.inclusiveNanos("ggpdes.(*runState).buildSegment")) / 1e6 / per
	m["ggpdes.alloc_b_per_ev"] = ratio(float64(alloc), float64(win.CommittedEvents))
	recordSimStats(m, first)
	baseRate, tracedRate := committedRate(baseCold, baseTime), committedRate(cold, tracedTime)
	m["trace.overhead_pct"] = 100 * ratio(baseRate-tracedRate, baseRate)
	printLayers("ggserved profile split", layers, per)
	fmt.Printf("tracing overhead: committed_ev_per_s of untraced phases %.6g (%d jobs), of traced phases %.6g (%d jobs)\n",
		baseRate, len(base), tracedRate, len(traced))
	printServedSimStats(base)

	var queue, run, overhead []float64
	for _, j := range cold {
		q, rn := j.meta.QueueSeconds*1e3, j.meta.RunSeconds*1e3
		queue, run = append(queue, q), append(run, rn)
		overhead = append(overhead, float64(j.latency)/1e6-q-rn)
	}
	m["client.submit_ms_p50"] = median(tr.durations("client.Submit"))
	m["client.result_ms_p50"] = median(tr.durations("client.Result"))
	m["serve.queue_ms_p50"] = median(queue)
	m["serve.run_ms_p50"] = median(run)
	m["serve.overhead_ms_p50"] = median(overhead)
	after, err := srv.counters()
	if err != nil {
		return err
	}
	h, miss := after["serve.cache_hits"]-before["serve.cache_hits"], after["serve.cache_misses"]-before["serve.cache_misses"]
	m["serve.cache_hit_ratio"] = ratio(float64(h), float64(h+miss))
	printSamples("client.Submit spans", tr.durations("client.Submit"), 0)
	printSamples("cold jobs in profile window", latenciesMS(inWindow), 0)

	if err := layerMicro(tr, m, 8, 2, 8, 4); err != nil {
		return err
	}
	var ct codecTimes
	if err := ct.measure(tr, cold[0].cfg, cold[0].res, codecSamples); err != nil {
		return err
	}
	ct.record(m)
	unexercised(m, checkpointMetrics)
	path, err := tr.write(filepath.Join(workDir, "spans"), fmt.Sprintf("served-seed%d.jsonl", o.seed))
	if err != nil {
		return err
	}
	fmt.Println("spans:", path)
	return verifyServed(&r.tally, srv, before, append(baseCold, cold...), append(baseHits, hits...))
}
