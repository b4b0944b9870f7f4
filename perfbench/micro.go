package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"ggpdes"
	"ggpdes/internal/checkpoint"
	"ggpdes/internal/machine"
	"ggpdes/internal/pq"
	"ggpdes/internal/telemetry"
)

// Microbenchmarks time public functions of one layer at a workload's
// shape. Each reports the median of several batches, so one GC cycle
// or scheduler hiccup moves a single batch, not the figure.

const microBatches = 7

// perOp times fn over batches of n calls and returns the median time per
// call in ns.
func perOp(tr *tracer, name string, n int, fn func(i int)) float64 {
	var xs []float64
	for b := 0; b < microBatches; b++ {
		id := tr.begin(name, 0, b)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		xs = append(xs, float64(time.Since(t0))/float64(n))
		tr.end(id)
	}
	return median(xs)
}

// machineConfig is the simulated processor a ggpdes.Machine of this
// shape builds: the KNL defaults narrowed to cores × smt contexts.
func machineConfig(cores, smt int) machine.Config {
	cfg := machine.KNL7230()
	cfg.Cores, cfg.SMTWidth = cores, smt
	cfg.SMTAggregate = cfg.SMTAggregate[:smt]
	cfg.MaxTicks = 1 << 26
	return cfg
}

// segmentNS is the host time of one Proc segment round trip (the thread
// yields a segment, the machine runs it and resumes the thread) with
// threads simulated threads on a cores × smt machine.
func segmentNS(tr *tracer, cores, smt, threads int) (float64, error) {
	const segments = 100_000
	per := segments / threads
	var xs []float64
	for b := 0; b < microBatches; b++ {
		id := tr.begin("machine.Run", 0, b)
		t0 := time.Now()
		m, err := machine.New(machineConfig(cores, smt))
		if err != nil {
			return 0, err
		}
		for t := 0; t < threads; t++ {
			m.Spawn(fmt.Sprintf("t%d", t), func(p *machine.Proc) {
				for i := 0; i < per; i++ {
					p.Work(100)
				}
			})
		}
		if err := m.Run(); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(t0))/float64(per*threads))
		tr.end(id)
	}
	return median(xs), nil
}

// holdNS is the classic hold-model cost of a pending queue at size
// items: pop the minimum, push it back one PHOLD delay later.
func holdNS(tr *tracer, kind pq.Kind, size int) float64 {
	r := rand.New(rand.NewSource(1))
	q := pq.New[float64](kind, func(a, b float64) bool { return a < b }, func(x float64) float64 { return x })
	for i := 0; i < size; i++ {
		q.Push(r.Float64() * phold.firstMax)
	}
	delays := make([]float64, 4096)
	for i := range delays {
		delays[i] = phold.delayMin + r.ExpFloat64()*phold.delayMean
	}
	return perOp(tr, "pq."+kind.String()+".hold", 50_000, func(i int) {
		x, _ := q.Pop()
		q.Push(x + delays[i&4095])
	})
}

// layerMicro measures the microbenchmark metrics common to every
// workload at its shape: threads on a cores × smt machine, perPeer
// pending events per simulation thread.
func layerMicro(tr *tracer, m map[string]float64, cores, smt, threads, perPeer int) error {
	seg, err := segmentNS(tr, cores, smt, threads)
	if err != nil {
		return fmt.Errorf("machine microbenchmark: %w", err)
	}
	m["machine.segment_ns"] = seg
	m["pq.splay.hold_ns"] = holdNS(tr, pq.Splay, perPeer)
	m["pq.heap.hold_ns"] = holdNS(tr, pq.Heap, perPeer)
	m["pq.calendar.hold_ns"] = holdNS(tr, pq.Calendar, perPeer)

	// The engine records through the per-thread cells a Registry shard
	// hands out; these are the same types, recorded the same way. They
	// are left unregistered so no metric name outside the program's
	// inventory exists.
	var c telemetry.Counter
	var h telemetry.Histogram
	m["telemetry.counter_ns"] = perOp(tr, "telemetry.Counter.Inc", 1_000_000, func(int) { c.Inc() })
	m["telemetry.histogram_ns"] = perOp(tr, "telemetry.Histogram.Observe", 1_000_000, func(i int) { h.Observe(float64(i & 1023)) })
	return nil
}

// codecSamples is how many codec samples a traced run takes for the
// per-layer codec medians.
const codecSamples = 1000

// codecTimes holds, per sample, the three codec steps a cache hit costs
// the server for a job: decoding the submitted config, computing its
// cache key and encoding the cached Results. All three are in µs.
type codecTimes struct {
	decode, key, encode []float64
}

// measure appends n samples for the job cfg and its Results res.
func (ct *codecTimes) measure(tr *tracer, cfg ggpdes.Config, res *ggpdes.Results, n int) error {
	raw, err := json.Marshal(cfg)
	if err != nil {
		return fmt.Errorf("encode config: %w", err)
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	for i := 0; i < n; i++ {
		id := tr.begin("ggpdes.Config.UnmarshalJSON", 0, i)
		t0 := time.Now()
		var c ggpdes.Config
		err := json.Unmarshal(raw, &c)
		t1 := time.Now()
		tr.end(id)
		if err != nil {
			return fmt.Errorf("decode config: %w", err)
		}
		id = tr.begin("ggpdes.Config.CacheKey", 0, i)
		_, err = c.CacheKey()
		t2 := time.Now()
		tr.end(id)
		if err != nil {
			return fmt.Errorf("cache key: %w", err)
		}
		id = tr.begin("json.Marshal(Results)", 0, i)
		_, err = json.Marshal(res)
		t3 := time.Now()
		tr.end(id)
		if err != nil {
			return fmt.Errorf("encode results: %w", err)
		}
		ct.decode = append(ct.decode, us(t1.Sub(t0)))
		ct.key = append(ct.key, us(t2.Sub(t1)))
		ct.encode = append(ct.encode, us(t3.Sub(t2)))
	}
	return nil
}

func (ct codecTimes) record(m map[string]float64) {
	m["ggpdes.config_decode_us"] = median(ct.decode)
	m["ggpdes.cachekey_us"] = median(ct.key)
	m["ggpdes.results_encode_us"] = median(ct.encode)
}

// checkpointMicro times checkpoint.Encode, Decode and WriteBytes on the
// snapshot at path.
func checkpointMicro(tr *tracer, m map[string]float64, path, dir string) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	snap, err := checkpoint.Read(path)
	if err != nil {
		return err
	}
	data, err := checkpoint.Encode(snap)
	if err != nil {
		return err
	}
	const n = 5
	var encErr, decErr, wErr error
	m["checkpoint.snapshot_kb"] = float64(info.Size()) / 1024
	m["checkpoint.encode_ms"] = perOp(tr, "checkpoint.Encode", n, func(int) {
		_, e := checkpoint.Encode(snap)
		encErr = firstErr(encErr, e)
	}) / 1e6
	m["checkpoint.decode_ms"] = perOp(tr, "checkpoint.Decode", n, func(int) {
		_, e := checkpoint.Decode(data)
		decErr = firstErr(decErr, e)
	}) / 1e6
	m["checkpoint.write_ms"] = perOp(tr, "checkpoint.WriteBytes", n, func(i int) {
		p, e := checkpoint.WriteBytes(dir, i+1, data)
		wErr = firstErr(wErr, e)
		if e == nil {
			wErr = firstErr(wErr, os.Remove(p))
		}
	}) / 1e6
	return firstErr(firstErr(encErr, decErr), wErr)
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// snapshotFiles lists a checkpoint directory's snapshots in order.
func snapshotFiles(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no snapshots in %s", dir)
	}
	return files, nil // Glob sorts, and the names are zero-padded
}
