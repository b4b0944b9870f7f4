package main

import (
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// A CPU profile is the only way to split ggpdes.Run into layers from
// outside the program. This file reads a profile's samples back through
// the toolchain's pprof and charges every sample to exactly one layer.

// cpuProfile is a CPU profile read back: one stack (function names, leaf
// first) and its CPU nanoseconds per sample.
type cpuProfile struct {
	stacks [][]string
	nanos  []int64
}

// Layer names the grouping produces besides the module's packages.
const (
	layerGC      = "gc"              // garbage collection, background and assists
	layerHandoff = "machine.handoff" // runtime channel/scheduler work of thread switches
	layerRollbk  = "tw.rollback"     // Time Warp rollback and cancellation
	layerBench   = "bench"           // the benchmark's own code
	layerOther   = "other"
)

// gcPrefixes mark a stack as garbage-collection work wherever they occur.
var gcPrefixes = []string{
	"runtime.gc", "runtime.(*gcWork)", "runtime.markroot", "runtime.scanobject",
	"runtime.scanblock", "runtime.scanstack", "runtime.scanframe", "runtime.greyobject",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.(*sweepLocked)",
	"runtime.(*mspan).sweep", "runtime.wbBuf", "runtime.deductSweepCredit",
}

// schedPrefixes are the runtime's goroutine hand-off machinery:
// channel operations, parking, readying and the scheduler loop. The
// machine switches simulated threads through unbuffered channels, so
// this is the cost of its handoff.
var schedPrefixes = []string{
	"runtime.chan", "runtime.send", "runtime.recv", "runtime.selectgo",
	"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.park_m",
	"runtime.schedule", "runtime.findRunnable", "runtime.execute", "runtime.mcall",
	"runtime.gogo", "runtime.casgstatus", "runtime.(*guintptr)", "runtime.(*waitq)",
	"runtime.lock", "runtime.unlock", "runtime.futex", "runtime.notewakeup",
	"runtime.notesleep", "runtime.wakep", "runtime.startm", "runtime.stopm",
	"runtime.runqget", "runtime.runqput", "runtime.acquireSudog", "runtime.releaseSudog",
	"runtime.goexit", "runtime.Goexit", "runtime.newproc", "runtime.resetspinning",
}

// rollbackFuncs are the Time Warp peer's rollback and cancellation
// paths; a tw sample under any of them is rollback work.
var rollbackFuncs = []string{
	"ggpdes/internal/tw.(*Peer).rollback", "ggpdes/internal/tw.(*Peer).unsend",
	"ggpdes/internal/tw.(*Peer).sendAnti", "ggpdes/internal/tw.(*Peer).handleAnti",
	"ggpdes/internal/tw.(*Peer).deferUnsend", "ggpdes/internal/tw.(*Peer).flushTentative",
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// moduleLayer maps a function of this module to its layer: the package
// under internal/ ("tw", "serve/client"), "ggpdes" for the root
// package, "bench" for package main. The rng package only serves the
// models, so it is charged to them. ok is false for the runtime and
// the standard library.
func moduleLayer(fn string) (layer string, ok bool) {
	switch {
	case strings.HasPrefix(fn, "main."):
		return layerBench, true
	case strings.HasPrefix(fn, "ggpdes."):
		return "ggpdes", true
	case !strings.HasPrefix(fn, "ggpdes/"):
		return "", false
	}
	// No package path of this module holds a '.', so the path ends at
	// the first one.
	path := strings.TrimPrefix(fn[:strings.IndexByte(fn+".", '.')], "ggpdes/")
	path = strings.TrimPrefix(path, "internal/")
	if path == "rng" {
		path = "models"
	}
	return path, true
}

// classify charges one stack (leaf first) to exactly one layer:
//   - any garbage-collection frame makes it gc;
//   - otherwise the first frame of this module, walking from the leaf,
//     names the layer, and runtime or standard-library frames below it
//     are charged to that layer (an allocation in tw is tw's cost);
//   - runtime hand-off frames below a machine frame, and scheduler
//     stacks with no module frame at all (the runtime switches
//     goroutines on its own stack), are the machine's handoff;
//   - tw work under a rollback function is tw.rollback.
func classify(stack []string) string {
	for _, fn := range stack {
		if hasAnyPrefix(fn, gcPrefixes) {
			return layerGC
		}
	}
	sched := false
	for i, fn := range stack {
		layer, ok := moduleLayer(fn)
		if !ok {
			sched = sched || hasAnyPrefix(fn, schedPrefixes)
			continue
		}
		switch {
		case layer == "machine" && sched:
			return layerHandoff
		case layer == "tw":
			for _, up := range stack[i:] {
				if hasAnyPrefix(up, rollbackFuncs) {
					return layerRollbk
				}
			}
		}
		return layer
	}
	if sched {
		return layerHandoff
	}
	return layerOther
}

// layerNanos sums the profile's CPU time per layer.
func (p *cpuProfile) layerNanos() map[string]int64 {
	out := make(map[string]int64)
	for i, st := range p.stacks {
		out[classify(st)] += p.nanos[i]
	}
	return out
}

// inclusiveNanos sums the CPU time of samples with fn anywhere on the
// stack.
func (p *cpuProfile) inclusiveNanos(fn string) int64 {
	var n int64
	for i, st := range p.stacks {
		for _, f := range st {
			if f == fn {
				n += p.nanos[i]
				break
			}
		}
	}
	return n
}

// readProfiles merges the CPU profiles at paths into one, through the
// toolchain's pprof: `go tool pprof -traces` prints every sample's
// stack with its CPU time, and parseTraces reads that text back.
func readProfiles(paths ...string) (*cpuProfile, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, paths...)...)
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(out.String())
}

// parseTraces reads the text of `go tool pprof -traces`: a header, then
// one block per sample, each after a line of dashes. A block's first
// line is the sample's value and its leaf function, every further line
// a caller.
func parseTraces(text string) (*cpuProfile, error) {
	p := &cpuProfile{}
	var stack []string
	inBlock := false
	flush := func() {
		if len(stack) > 0 {
			p.stacks = append(p.stacks, stack)
		}
		stack = nil
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		fn := strings.TrimSpace(line)
		if !inBlock || fn == "" {
			continue
		}
		if stack == nil {
			value, rest, _ := strings.Cut(fn, " ")
			d, err := time.ParseDuration(value)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample value %q: %w", value, err)
			}
			p.nanos = append(p.nanos, int64(d))
			fn = strings.TrimSpace(rest)
		}
		stack = append(stack, strings.TrimSuffix(fn, " (inline)"))
	}
	flush()
	if len(p.stacks) != len(p.nanos) {
		return nil, errors.New("pprof traces: a sample without a stack")
	}
	return p, nil
}
