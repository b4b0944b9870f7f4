// Command perfbench measures GG-PDES on the host: committed events per
// host second for single runs, jobs per second and submit-to-result
// latency through ggserved, and the split of that time across the
// engine's layers. Run it from the repository root through run.sh,
// which builds it and ggserved first:
//
//	bash perfbench/run.sh --workload dense --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh steady --workload dense --runs 10
//	bash perfbench/run.sh manifest > BENCHMARK.json
//
// Every run checks the outputs it measured against references computed
// independently (see README.md) and prints, as its last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 they are the
// per-layer ones, taken from a separate traced run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// runSeconds is how long one run measures by default.
const runSeconds = 15

// workDir holds everything a run writes: snapshots, span files, the
// ggserved checkpoint root. It lies inside the checkout and is ignored
// by git.
const workDir = ".bench_build/work"

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of GG-PDES sees. Every workload
// reports all of them; README.md says what each means per workload.
// Every bound is the largest allowed: on the shared reference host the
// same commit and seed ran up to 25% slower a few minutes later, so a
// tighter bound would reject unchanged code.
var endToEnd = []metricSpec{
	{"committed_ev_per_s", "ev/s", "higher", e2eBound},
	{"jobs_per_s", "jobs/s", "higher", e2eBound},
	{"cold_ms_p50", "ms", "lower", e2eBound},
	{"hit_ms_p50", "ms", "lower", e2eBound},
	{"resume_ms_p50", "ms", "lower", e2eBound},
	{"peak_rss_mb", "MB", "lower", e2eBound},
	{"setup_s", "s", "lower", e2eBound},
}

const e2eBound = 0.25

// perLayer are the single-layer metrics of a traced run. A layer the
// workload does not exercise reads 0.
var perLayer = []metricSpec{
	{"machine.segment_ns", "ns", "lower", 0},
	{"machine.handoff_ms", "ms", "lower", 0},
	{"machine.host_ms", "ms", "lower", 0},
	{"tw.host_ms", "ms", "lower", 0},
	{"tw.ns_per_processed_ev", "ns", "lower", 0},
	{"tw.ns_per_rolled_back_ev", "ns", "lower", 0},
	{"pq.host_ms", "ms", "lower", 0},
	{"pq.splay.hold_ns", "ns", "lower", 0},
	{"pq.heap.hold_ns", "ns", "lower", 0},
	{"pq.calendar.hold_ns", "ns", "lower", 0},
	{"models.host_ms", "ms", "lower", 0},
	{"gvt.host_ms", "ms", "lower", 0},
	{"core.host_ms", "ms", "lower", 0},
	{"telemetry.host_ms", "ms", "lower", 0},
	{"telemetry.counter_ns", "ns", "lower", 0},
	{"telemetry.histogram_ns", "ns", "lower", 0},
	{"ggpdes.gc_ms", "ms", "lower", 0},
	{"ggpdes.alloc_b_per_ev", "B/ev", "lower", 0},
	{"tw.pool.event_hit_ratio", "ratio", "higher", 0},
	{"tw.efficiency", "ratio", "higher", 0},
	{"tw.rolled_back_events", "count", "lower", 0},
	{"gvt.rounds", "count", "lower", 0},
	{"core.deactivations", "count", "lower", 0},
	{"machine.ctx_switches", "count", "lower", 0},
	{"ggpdes.sim_ev_per_s", "sim-ev/s", "higher", 0},
	{"checkpoint.snapshot_kb", "KB", "lower", 0},
	{"checkpoint.encode_ms", "ms", "lower", 0},
	{"checkpoint.decode_ms", "ms", "lower", 0},
	{"checkpoint.write_ms", "ms", "lower", 0},
	{"ggpdes.rebuild_ms", "ms", "lower", 0},
	{"ggpdes.config_decode_us", "us", "lower", 0},
	{"ggpdes.cachekey_us", "us", "lower", 0},
	{"ggpdes.results_encode_us", "us", "lower", 0},
	{"client.submit_ms_p50", "ms", "lower", 0},
	{"client.result_ms_p50", "ms", "lower", 0},
	{"serve.overhead_ms_p50", "ms", "lower", 0},
	{"serve.queue_ms_p50", "ms", "lower", 0},
	{"serve.run_ms_p50", "ms", "lower", 0},
	{"serve.cache_hit_ratio", "ratio", "higher", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(opts) (*report, error)
}

var workloads = []workloadSpec{
	{"oversub", "PHOLD 1-16, 128 threads on 16 contexts (Fig. 4b): goroutine handoff, de-scheduling, rollbacks and GC do the work", runOversub},
	{"dense", "balanced PHOLD, 16 threads x 64 LPs on 16 contexts: forward execution over deep queues, no context switches", runDense},
	{"ckpt", "dense with a checkpoint every 2 GVT rounds and a Resume per repetition: snapshot encode, write, decode, rebuild", runCkpt},
	{"served", "ggserved under 2 closed-loop clients, 3 of 4 jobs unique and 1 a cache hit: admission, codecs, cache, HTTP", runServed},
}

// opts are one run's command-line settings.
type opts struct {
	seed    uint64
	seconds float64
	trace   bool
}

// report is one run's outcome.
type report struct {
	tally
	metrics map[string]float64
}

// tally counts the operations a run attempted and those that failed:
// timed repetitions or submissions (failing on an error or a non-2xx
// reply) and correctness checks (failing on a wrong output).
type tally struct {
	attempted, failed int
	checksFailed      int
	problems          []string
}

// op records one timed operation; it returns false when err is set.
func (t *tally) op(what string, err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		t.note("%s: %v", what, err)
		return false
	}
	return true
}

// check records one correctness check.
func (t *tally) check(what string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.checksFailed++
		t.note("check %s: %v", what, err)
	}
}

func (t *tally) note(format string, args ...any) {
	if len(t.problems) < 20 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "manifest":
			if err := writeManifest(os.Stdout); err != nil {
				fatal(err)
			}
			return
		case "steady":
			if err := steadyMain(os.Args[2:]); err != nil {
				fatal(err)
			}
			return
		case "coldstart":
			if err := coldStartMain(os.Args[2:]); err != nil {
				fatal(err)
			}
			return
		}
	}
	var (
		name    = flag.String("workload", "", "workload: oversub, dense, ckpt or served")
		seed    = flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", runSeconds, "how long the run measures")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	)
	flag.Parse()
	var w *workloadSpec
	for i := range workloads {
		if workloads[i].Name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	rep, err := w.run(opts{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fatal(err)
	}
	specs := endToEnd
	if *trace == 1 {
		specs = perLayer
	}
	out, err := rep.result(specs)
	if err != nil {
		fatal(err)
	}
	fmt.Println(out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// result prints the human-readable summary and returns the final JSON
// line. Every metric in specs must have been measured.
func (r *report) result(specs []metricSpec) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(specs))
	for _, s := range specs {
		v, ok := r.metrics[s.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", s.Name)
		}
		metrics[s.Name] = value{v, s.Unit}
		fmt.Printf("%-28s %14.6g %s\n", s.Name, v, s.Unit)
	}
	for _, p := range r.problems {
		fmt.Println("FAILED", p)
	}
	fmt.Printf("operations: %d attempted, %d failed (%d failed checks)\n", r.attempted, r.failed, r.checksFailed)
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.checksFailed == 0, r.attempted, r.failed, metrics})
	return string(b), err
}

// manifest is BENCHMARK.json, generated from the tables above so the
// file and the program cannot disagree.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func writeManifest(w io.Writer) error {
	b, err := json.MarshalIndent(manifest{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// printSamples reports the sample count behind a median or tail.
func printSamples(name string, xs []float64, tailQ float64) {
	if tailQ == 0 {
		fmt.Printf("samples %-22s n=%d\n", name, len(xs))
		return
	}
	note := ""
	if q, ok := tailPercentile(len(xs)); !ok || q < tailQ {
		note = ", too few samples for it to be a tail"
	}
	fmt.Printf("samples %-22s n=%d (tail p%g, %d beyond%s)\n", name, len(xs), tailQ*100, samplesBeyond(len(xs), tailQ), note)
}

// printTail reports a tail that is measured but not a gated metric.
func printTail(name string, xs []float64, q float64) {
	fmt.Printf("tail    %-22s p%g = %.6g (reported, not gated)\n", name, q*100, percentile(xs, q))
}

// printLayers prints a profile's per-layer CPU split, largest first.
func printLayers(title string, ns map[string]int64, per float64) {
	names := make([]string, 0, len(ns))
	for n := range ns {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return ns[names[i]] > ns[names[j]] })
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%.2f", n, float64(ns[n])/1e6/per)
	}
	fmt.Printf("%s (ms per run):%s\n", title, b.String())
}
