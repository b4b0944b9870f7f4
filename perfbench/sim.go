package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ggpdes"
	"ggpdes/internal/checkpoint"
)

// simShape is a single-run workload: one config, repeated over the
// run's model seeds.
type simShape struct {
	name string
	cfg  ggpdes.Config // the seed comes from seeds
	// seeds are the model seeds the repetitions cycle through.
	seeds []uint64
	// ckptEvery > 0 checkpoints every that many GVT rounds and resumes
	// the middle snapshot in every repetition.
	ckptEvery int
	// expect is the committed count renewal theory predicts.
	expect pholdCount
	// threads, cores, smt and perPeer give the microbenchmarks the
	// workload's shape; perPeer is pending events per simulation thread.
	threads, cores, smt, perPeer int
	// tailQ is the percentile the cold tail is reported at; the run
	// repeats until it has enough samples for it to be a tail.
	tailQ float64
}

// endTime is every workload's virtual end time.
const endTime = 40.0

// pholdOn is a PHOLD run on the 8-core × 2-SMT machine the repository's
// figure benchmarks use, with their GVT and scheduling settings.
func pholdOn(model ggpdes.PHOLD, threads int) ggpdes.Config {
	return ggpdes.Config{
		Model: model, Threads: threads,
		System: ggpdes.GGPDES, GVT: ggpdes.WaitFree, Affinity: ggpdes.ConstantAffinity,
		Machine:      ggpdes.Machine{Cores: 8, SMTWidth: 2, FreqHz: 1.3e9},
		GVTFrequency: 40, ZeroCounterThreshold: 400, OptimismWindow: 10,
		EndTime: endTime,
	}
}

// seedsPerRun is how many model seeds a simulation run cycles through,
// so that its medians rest on several trajectories and no one seed's
// cost sets them.
const seedsPerRun = 8

// modelSeeds are run seed n's model seeds, 8n+1 … 8n+8: distinct for
// every run seed and never 0, which ggpdes treats as 1.
func modelSeeds(seed uint64) []uint64 {
	out := make([]uint64, seedsPerRun)
	for k := range out {
		out[k] = seed*seedsPerRun + uint64(k) + 1
	}
	return out
}

// config is the run configuration of model seed k.
func (s *simShape) config(k int) ggpdes.Config {
	cfg := s.cfg
	cfg.Seed = s.seeds[k]
	return cfg
}

func oversubShape(seed uint64) simShape {
	cfg := pholdOn(ggpdes.PHOLD{LPsPerThread: 4, Imbalance: 16}, 128)
	// With the figure benchmarks' window of 10, about a third of seeds
	// fall into rollback thrash (7-10% efficiency instead of 30-40%, 4×
	// the host time), so runs with different seeds cannot agree within
	// any bound. A window of 3, the bounded optimism Config recommends
	// for deep over-subscription, keeps every seed near 72% efficiency.
	cfg.OptimismWindow = 3
	return simShape{
		name: "oversub", cfg: cfg, seeds: modelSeeds(seed),
		expect: expectPHOLD(128*4, endTime), threads: 128, cores: 8, smt: 2, perPeer: 4, tailQ: 0.75,
	}
}

func denseShape(seed uint64, name string, ckptEvery int, tailQ float64) simShape {
	return simShape{
		name: name, cfg: pholdOn(ggpdes.PHOLD{LPsPerThread: 64}, 16), seeds: modelSeeds(seed), ckptEvery: ckptEvery,
		expect: expectPHOLD(16*64, endTime), threads: 16, cores: 8, smt: 2, perPeer: 64, tailQ: tailQ,
	}
}

// simShapeOf returns the simulation workload name with run seed seed.
func simShapeOf(name string, seed uint64) (simShape, bool) {
	switch name {
	case "oversub":
		return oversubShape(seed), true
	case "dense":
		return denseShape(seed, "dense", 0, 0.95), true
	case "ckpt":
		return denseShape(seed, "ckpt", 2, 0.75), true
	}
	return simShape{}, false
}

func runOversub(o opts) (*report, error) { return runSimNamed(o, "oversub") }
func runDense(o opts) (*report, error)   { return runSimNamed(o, "dense") }
func runCkpt(o opts) (*report, error)    { return runSimNamed(o, "ckpt") }

func runSimNamed(o opts, name string) (*report, error) {
	s, _ := simShapeOf(name, o.seed)
	return runSim(o, s)
}

// simLoop is what a set of measured rounds saw.
type simLoop struct {
	runMS, repMS, resumeMS, rate []float64
	reps, failures               int
	// res and resJSON hold each model seed's first Results.
	res     []*ggpdes.Results
	resJSON [][]byte
}

func (s *simShape) newLoop() *simLoop {
	return &simLoop{res: make([]*ggpdes.Results, len(s.seeds)), resJSON: make([][]byte, len(s.seeds))}
}

// repetition runs cfg once (checkpointed run plus Resume for ckpt) and
// checks what it returned against first, the seed's first Results, when
// given. It returns the Results, their JSON, and the run and resume
// durations.
func (s *simShape) repetition(t *tally, tr *tracer, run int, cfg ggpdes.Config, first []byte) (*ggpdes.Results, []byte, time.Duration, time.Duration, error) {
	if s.ckptEvery > 0 {
		dir, err := os.MkdirTemp(workDir, "ckpt-")
		if err != nil {
			return nil, nil, 0, 0, err
		}
		defer os.RemoveAll(dir)
		cfg.Checkpoint = &ggpdes.CheckpointOptions{Every: s.ckptEvery, Dir: dir}
	}
	root := tr.begin("repetition", 0, run)
	defer tr.end(root)
	id := tr.begin("ggpdes.Run", root, run)
	t0 := time.Now()
	res, err := ggpdes.Run(cfg)
	runD := time.Since(t0)
	tr.end(id)
	if !t.op("ggpdes.Run", err) {
		return nil, nil, 0, 0, nil
	}
	resJSON, err := json.Marshal(res)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	var resumeD time.Duration
	if s.ckptEvery > 0 {
		files, err := snapshotFiles(cfg.Checkpoint.Dir)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		id := tr.begin("ggpdes.Resume", root, run)
		t1 := time.Now()
		rres, err := ggpdes.Resume(files[(len(files)-1)/2])
		resumeD = time.Since(t1)
		tr.end(id)
		if t.op("ggpdes.Resume", err) {
			t.check("resume equals the uninterrupted run", sameJSON(rres, resJSON))
		}
	}
	s.checkRun(t, res)
	if first != nil {
		t.check("simulated statistics repeat across repetitions", bytesEqual(resJSON, first))
	}
	return res, resJSON, runD, resumeD, nil
}

// checkRun holds a PHOLD run to references that do not come from the
// program: the renewal expectation, the event accounting identity and
// the end of virtual time.
func (s *simShape) checkRun(t *tally, res *ggpdes.Results) {
	t.check("committed near the renewal expectation", s.expect.check(res.CommittedEvents))
	var acct error
	if res.ProcessedEvents != res.CommittedEvents+res.RolledBackEvents {
		acct = fmt.Errorf("processed %d != committed %d + rolled back %d", res.ProcessedEvents, res.CommittedEvents, res.RolledBackEvents)
	}
	t.check("processed = committed + rolled back", acct)
	var gvt error
	if res.FinalGVT != s.cfg.EndTime {
		gvt = fmt.Errorf("final GVT %v, end time %v", res.FinalGVT, s.cfg.EndTime)
	}
	t.check("final GVT is the end time", gvt)
}

// round runs one repetition per model seed and records them in l; spans
// go to tr when it is non-nil.
func (s *simShape) round(t *tally, tr *tracer, l *simLoop, round int) error {
	for k := range s.seeds {
		res, resJSON, runD, resumeD, err := s.repetition(t, tr, round*len(s.seeds)+k, s.config(k), l.resJSON[k])
		if err != nil {
			return err
		}
		if res == nil {
			l.failures++
			continue
		}
		if l.res[k] == nil {
			l.res[k], l.resJSON[k] = res, resJSON
		}
		l.reps++
		l.runMS = append(l.runMS, float64(runD)/1e6)
		l.repMS = append(l.repMS, float64(runD+resumeD)/1e6)
		l.rate = append(l.rate, float64(res.CommittedEvents)/runD.Seconds())
		if s.ckptEvery > 0 {
			l.resumeMS = append(l.resumeMS, float64(resumeD)/1e6)
		}
	}
	return nil
}

// loop repeats rounds for at least seconds and minReps repetitions,
// calling between after every round. Past the time limit, rounds
// continue only until the tail has its samples, and not at all once a
// repetition has failed.
func (s *simShape) loop(t *tally, seconds float64, minReps int, between func(elapsed time.Duration) error) (*simLoop, error) {
	l := s.newLoop()
	start := time.Now()
	for round := 0; time.Since(start).Seconds() < seconds || (l.reps < minReps && l.failures == 0); round++ {
		if err := s.round(t, nil, l, round); err != nil {
			return nil, err
		}
		if err := between(time.Since(start)); err != nil {
			return nil, err
		}
	}
	return l, s.complete(l)
}

// complete fails when every repetition of some model seed failed.
func (s *simShape) complete(l *simLoop) error {
	for k, res := range l.res {
		if res == nil {
			return fmt.Errorf("%s: every repetition of model seed %d failed", s.name, s.seeds[k])
		}
	}
	return nil
}

// setupSeeds are the model seeds of set-up repetitions: the same in
// every run, so that set-up does not depend on --seed.
var setupSeeds = modelSeeds(0)

// setupConfig is the configuration of the i-th set-up repetition.
func (s *simShape) setupConfig(i int) ggpdes.Config {
	cfg := s.cfg
	cfg.Seed = setupSeeds[i%len(setupSeeds)]
	return cfg
}

// warmUps is how many repetitions a run makes before measuring: the
// first run in a process also grows the heap and the engine's pools.
const warmUps = 2

func (s *simShape) warmUp(t *tally) error {
	for i := 0; i < warmUps; i++ {
		if _, _, _, _, err := s.repetition(t, nil, -1, s.setupConfig(i), nil); err != nil {
			return err
		}
	}
	return nil
}

// setupReps is how many set-ups a run times; setup_s is their median.
const setupReps = 7

// coldStart times one set-up of a simulation workload: a fresh
// perfbench process (coldStartMain) that runs one set-up repetition
// and exits. It holds everything the first run in a process pays:
// process start, runtime and package initialisation, and a repetition
// on a cold heap with empty pools. ok is false when it failed.
func (s *simShape) coldStart(t *tally, i int) (seconds float64, ok bool, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, false, err
	}
	cmd := exec.Command(exe, "coldstart", "--workload", s.name, "--index", fmt.Sprint(i))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t0 := time.Now()
	err = cmd.Run()
	seconds = time.Since(t0).Seconds()
	if err != nil {
		err = fmt.Errorf("%w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return seconds, t.op("cold start", err), nil
}

// coldStartMain is the process coldStart times.
func coldStartMain(args []string) error {
	fs := flag.NewFlagSet("coldstart", flag.ContinueOnError)
	name := fs.String("workload", "", "simulation workload")
	i := fs.Int("index", 0, "which set-up repetition")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, ok := simShapeOf(*name, 0)
	if !ok {
		return fmt.Errorf("no simulation workload %q", *name)
	}
	var t tally
	if _, _, _, _, err := s.repetition(&t, nil, -1, s.setupConfig(*i), nil); err != nil {
		return err
	}
	if t.failed > 0 {
		return errors.New(strings.Join(t.problems, "; "))
	}
	return nil
}

// referenceChecks compares each model seed's committed count with runs
// the timed loop did not make: a Baseline system with barrier GVT (no
// demand-driven scheduling, no asynchronous GVT) and, for ckpt, the
// same model without checkpoints.
func (s *simShape) referenceChecks(t *tally, l *simLoop) {
	for k, res := range l.res {
		base := s.config(k)
		base.System, base.GVT = ggpdes.Baseline, ggpdes.Barrier
		ref, err := ggpdes.Run(base)
		if t.op("reference Baseline/Barrier run", err) {
			t.check("committed equals the Baseline/Barrier run", sameCount(res.CommittedEvents, ref.CommittedEvents))
		}
		if s.ckptEvery > 0 {
			plain, err := ggpdes.Run(s.config(k))
			if t.op("reference run without checkpoints", err) {
				t.check("ckpt commits what dense commits", sameCount(res.CommittedEvents, plain.CommittedEvents))
			}
		}
	}
}

func runSim(o opts, s simShape) (*report, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	r := &report{metrics: map[string]float64{}}
	if err := s.warmUp(&r.tally); err != nil {
		return nil, err
	}
	var err error
	if o.trace {
		err = s.traced(o, r)
	} else {
		err = s.untraced(o, r)
	}
	return r, err
}

// untraced measures the end-to-end metrics. The set-ups are spread over
// the run, one before the first round and the others at even intervals
// between rounds, so that their median rests on the same stretch of
// host time as the repetitions' medians do.
func (s *simShape) untraced(o opts, r *report) error {
	var setups []float64
	taken := 0
	setUp := func() error {
		x, ok, err := s.coldStart(&r.tally, taken)
		taken++
		if ok {
			setups = append(setups, x)
		}
		return err
	}
	if err := setUp(); err != nil {
		return err
	}
	l, err := s.loop(&r.tally, o.seconds, samplesForTail(s.tailQ), func(elapsed time.Duration) error {
		if taken >= setupReps || elapsed.Seconds() < float64(taken)*o.seconds/setupReps {
			return nil
		}
		return setUp()
	})
	if err != nil {
		return err
	}
	for taken < setupReps {
		if err := setUp(); err != nil {
			return err
		}
	}
	if len(setups) == 0 {
		return errors.New("every cold start failed")
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	m := r.metrics
	m["committed_ev_per_s"] = median(l.rate)
	m["jobs_per_s"] = 1e3 / median(l.repMS)
	m["cold_ms_p50"] = median(l.runMS)
	// These workloads have no result cache, and oversub and dense write
	// no snapshot: a repeated job, or a resumed one, costs a full Run
	// here. Both metrics therefore report the Run median; they are
	// stand-ins, not measurements of a cache hit or of Resume.
	m["hit_ms_p50"] = m["cold_ms_p50"]
	m["resume_ms_p50"] = m["cold_ms_p50"]
	if s.ckptEvery > 0 {
		m["resume_ms_p50"] = median(l.resumeMS)
	}
	m["peak_rss_mb"] = rss
	m["setup_s"] = median(setups)
	printSamples("repetitions (cold_ms)", l.runMS, s.tailQ)
	printTail("cold_ms", l.runMS, s.tailQ)
	if s.ckptEvery > 0 {
		printSamples("resume_ms", l.resumeMS, 0)
	} else {
		fmt.Println("resume_ms_p50 is a stand-in: no snapshot, so a resumed job reruns from the start")
	}
	fmt.Println("hit_ms_p50 is a stand-in: no cache, so a repeated job reruns in full")
	printSamples("setup_s (cold starts)", setups, 0)
	s.printSimStats(l)
	s.referenceChecks(&r.tally, l)
	return nil
}

// printSimStats reports each model seed's simulated statistics (the
// loop checked every repetition of a seed reproduced them).
func (s *simShape) printSimStats(l *simLoop) {
	for k, res := range l.res {
		fmt.Printf("simulated statistics of model seed %d (identical in all %d of its repetitions): committed=%d processed=%d rolled_back=%d efficiency=%.4f gvt_rounds=%d deactivations=%d ctx_switches=%d sim_ev_per_s=%.6g\n",
			s.seeds[k], l.reps/len(l.res), res.CommittedEvents, res.ProcessedEvents, res.RolledBackEvents, res.Efficiency(),
			res.GVTRounds, res.Deactivations, res.ContextSwitches, res.CommittedEventRate)
	}
}

// traced alternates untraced rounds with traced ones until seconds have
// passed and there are at least two of each. A traced round records
// spans around every layer call and runs under a CPU profile of its
// own. Alternating rounds keeps the host's drift out of the tracing
// overhead, which compares the two kinds' medians.
func (s *simShape) traced(o opts, r *report) error {
	base, l := s.newLoop(), s.newLoop()
	// Both kinds of round check their repetitions against the same
	// first Results of each seed.
	l.res, l.resJSON = base.res, base.resJSON
	tr := newTracer()
	var (
		profiles []string
		alloc    uint64
		start    = time.Now()
	)
	for round := 0; round%2 == 1 || round < 4 || time.Since(start).Seconds() < o.seconds; round++ {
		if round%2 == 0 {
			if err := s.round(&r.tally, nil, base, round); err != nil {
				return err
			}
			continue
		}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := s.round(&r.tally, tr, l, round)
		runtime.ReadMemStats(&after)
		pprof.StopCPUProfile()
		if err != nil {
			return err
		}
		alloc += after.TotalAlloc - before.TotalAlloc
		path, err := writeProfile(prof.Bytes(), fmt.Sprintf("%s-seed%d-round%d.pprof", s.name, o.seed, round))
		if err != nil {
			return err
		}
		profiles = append(profiles, path)
	}
	if err := s.complete(l); err != nil {
		return err
	}
	p, err := readProfiles(profiles...)
	if err != nil {
		return err
	}
	fmt.Printf("profiles: %d traced rounds, %s ...\n", len(profiles), profiles[0])
	snapDir, err := os.MkdirTemp(workDir, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(snapDir)
	ev, err := s.eventsPerRep(tr, l.res, snapDir)
	if err != nil {
		return err
	}
	sum := sumResults(l.res)
	m := r.metrics
	reps := float64(l.reps)
	layers := p.layerNanos()
	recordLayers(m, layers, reps, ev)
	m["ggpdes.rebuild_ms"] = float64(p.inclusiveNanos("ggpdes.(*runState).buildSegment")) / 1e6 / reps
	m["ggpdes.alloc_b_per_ev"] = ratio(float64(alloc), reps*ev.committed)
	recordSimStats(m, sum)
	baseRate, tracedRate := median(base.rate), median(l.rate)
	m["trace.overhead_pct"] = 100 * ratio(baseRate-tracedRate, baseRate)
	printLayers("profile split", layers, reps)
	fmt.Printf("tracing overhead: committed_ev_per_s of untraced rounds %.6g (n=%d), of traced rounds %.6g (n=%d)\n",
		baseRate, base.reps, tracedRate, l.reps)
	s.printSimStats(l)

	if err := layerMicro(tr, m, s.cores, s.smt, s.threads, s.perPeer); err != nil {
		return err
	}
	var ct codecTimes
	if err := ct.measure(tr, s.config(0), l.res[0], codecSamples); err != nil {
		return err
	}
	ct.record(m)
	unexercised(m, servingMetrics)
	unexercised(m, checkpointMetrics)
	if s.ckptEvery > 0 {
		if err := checkpointMicro(tr, m, ev.snapshot, snapDir); err != nil {
			return fmt.Errorf("checkpoint microbenchmark: %w", err)
		}
	}
	path, err := tr.write(filepath.Join(workDir, "spans"), fmt.Sprintf("%s-seed%d.jsonl", s.name, o.seed))
	if err != nil {
		return err
	}
	fmt.Println("spans:", path)
	s.referenceChecks(&r.tally, l)
	return nil
}

// writeProfile keeps a traced round's CPU profile beside the spans, for
// readProfiles and for go tool pprof, and returns its path.
func writeProfile(data []byte, name string) (string, error) {
	dir := filepath.Join(workDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, data, 0o644)
}

// repEvents are the events a repetition processes, rolls back and
// commits, averaged over the model seeds: the run's, plus for ckpt what
// the Resume re-executes after its snapshot.
type repEvents struct {
	processed, rolledBack, committed float64
	snapshot                         string // ckpt: the first seed's resumed snapshot
}

// eventsPerRep counts a repetition's events. For ckpt it repeats each
// seed's checkpointed run under dir and subtracts the middle snapshot's
// cumulative counts from the final ones; the first seed's snapshot stays
// for the checkpoint microbenchmarks.
func (s *simShape) eventsPerRep(tr *tracer, results []*ggpdes.Results, dir string) (repEvents, error) {
	var ev repEvents
	n := float64(len(results))
	for k, res := range results {
		ev.processed += float64(res.ProcessedEvents) / n
		ev.rolledBack += float64(res.RolledBackEvents) / n
		ev.committed += float64(res.CommittedEvents) / n
		if s.ckptEvery == 0 {
			continue
		}
		cfg := s.config(k)
		cfg.Checkpoint = &ggpdes.CheckpointOptions{Every: s.ckptEvery, Dir: filepath.Join(dir, fmt.Sprint(k))}
		id := tr.begin("ggpdes.Run", 0, -1)
		_, err := ggpdes.Run(cfg)
		tr.end(id)
		if err != nil {
			return ev, err
		}
		files, err := snapshotFiles(cfg.Checkpoint.Dir)
		if err != nil {
			return ev, err
		}
		mid := files[(len(files)-1)/2]
		if k == 0 {
			ev.snapshot = mid
		}
		snap, err := checkpoint.Read(mid)
		if err != nil {
			return ev, err
		}
		var p, rb, c uint64
		for _, ps := range snap.Engine.PeerStats {
			p, rb, c = p+ps.Processed, rb+ps.RolledBack, c+ps.Committed
		}
		ev.processed += float64(res.ProcessedEvents-p) / n
		ev.rolledBack += float64(res.RolledBackEvents-rb) / n
		ev.committed += float64(res.CommittedEvents-c) / n
	}
	return ev, nil
}

// recordLayers turns a profile's per-layer CPU time into per-run
// metrics (per divides the totals into runs).
func recordLayers(m map[string]float64, ns map[string]int64, per float64, ev repEvents) {
	ms := func(layer string) float64 { return float64(ns[layer]) / 1e6 / per }
	m["machine.handoff_ms"] = ms(layerHandoff)
	m["machine.host_ms"] = ms("machine")
	m["tw.host_ms"] = ms("tw") + ms(layerRollbk)
	m["pq.host_ms"] = ms("pq")
	m["models.host_ms"] = ms("models")
	m["gvt.host_ms"] = ms("gvt")
	m["core.host_ms"] = ms("core")
	m["telemetry.host_ms"] = ms("telemetry")
	m["ggpdes.gc_ms"] = ms(layerGC)
	m["tw.ns_per_processed_ev"] = ratio(ms("tw")*1e6, ev.processed)
	m["tw.ns_per_rolled_back_ev"] = ratio(ms(layerRollbk)*1e6, ev.rolledBack)
}

// recordSimStats reports simulated statistics (summed over runs by
// sumResults); they depend on the algorithm and the seeds, never on the
// host.
func recordSimStats(m map[string]float64, res *ggpdes.Results) {
	m["tw.efficiency"] = res.Efficiency()
	m["tw.rolled_back_events"] = float64(res.RolledBackEvents)
	m["gvt.rounds"] = float64(res.GVTRounds)
	m["core.deactivations"] = float64(res.Deactivations)
	m["machine.ctx_switches"] = float64(res.ContextSwitches)
	m["ggpdes.sim_ev_per_s"] = res.CommittedEventRate
	hit, miss := res.Counters["tw.pool.event_hit"], res.Counters["tw.pool.event_miss"]
	m["tw.pool.event_hit_ratio"] = ratio(float64(hit), float64(hit+miss))
}

// servingMetrics and checkpointMetrics are the per-layer metrics of
// layers only served and ckpt exercise.
var (
	servingMetrics = []string{"client.submit_ms_p50", "client.result_ms_p50", "serve.overhead_ms_p50",
		"serve.queue_ms_p50", "serve.run_ms_p50", "serve.cache_hit_ratio"}
	checkpointMetrics = []string{"checkpoint.snapshot_kb", "checkpoint.encode_ms", "checkpoint.decode_ms", "checkpoint.write_ms"}
)

// unexercised records 0 for metrics of a layer the workload never calls.
func unexercised(m map[string]float64, names []string) {
	for _, n := range names {
		m[n] = 0
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sumResults adds up the simulated statistics of several runs.
func sumResults(results []*ggpdes.Results) *ggpdes.Results {
	sum := &ggpdes.Results{Counters: map[string]uint64{}}
	var wall float64
	for _, r := range results {
		sum.CommittedEvents += r.CommittedEvents
		sum.ProcessedEvents += r.ProcessedEvents
		sum.RolledBackEvents += r.RolledBackEvents
		sum.GVTRounds += r.GVTRounds
		sum.Deactivations += r.Deactivations
		sum.ContextSwitches += r.ContextSwitches
		for _, k := range []string{"tw.pool.event_hit", "tw.pool.event_miss"} {
			sum.Counters[k] += r.Counters[k]
		}
		wall += r.WallClockSeconds
	}
	sum.CommittedEventRate = ratio(float64(sum.CommittedEvents), wall)
	return sum
}

func sameJSON(res *ggpdes.Results, want []byte) error {
	got, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return bytesEqual(got, want)
}

func bytesEqual(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("results differ (%d vs %d bytes of JSON)", len(got), len(want))
	}
	return nil
}

func sameCount(got, want uint64) error {
	if got != want {
		return fmt.Errorf("%d, reference %d", got, want)
	}
	return nil
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	var kb float64
	for _, line := range bytes.Split(b, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("VmHWM:")) {
			if _, err := fmt.Sscanf(string(line), "VmHWM: %f kB", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
