package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"ggpdes/internal/pq.(*SplayTree[go.shape.*uint8]).splay", "ggpdes/internal/tw.(*Peer).Drain"}, "pq"},
		{[]string{"runtime.mallocgc", "runtime.newobject", "ggpdes/internal/tw.(*Peer).allocEvent", "ggpdes/internal/tw.(*Peer).ProcessBatch"}, "tw"},
		{[]string{"ggpdes/internal/tw.(*Peer).freeEvent", "ggpdes/internal/tw.(*Peer).rollback", "ggpdes/internal/tw.(*Peer).Drain"}, "tw.rollback"},
		{[]string{"runtime.chanrecv", "runtime.chanrecv1", "ggpdes/internal/machine.(*Proc).call", "ggpdes/internal/tw.(*Peer).Drain"}, "machine.handoff"},
		{[]string{"runtime.unlock2", "runtime.chanparkcommit", "runtime.park_m", "runtime.mcall"}, "machine.handoff"},
		{[]string{"runtime.mallocgc", "ggpdes/internal/machine.(*Machine).spawn"}, "machine"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.gcAssistAlloc", "runtime.mallocgc", "ggpdes/internal/tw.(*Peer).allocEvent"}, "gc"},
		{[]string{"ggpdes/internal/rng.(*Rand).Exponential", "ggpdes/internal/models.(*PHOLD).OnEvent"}, "models"},
		{[]string{"encoding/json.(*encodeState).marshal", "ggpdes/internal/serve.(*Manager).v2Result"}, "serve"},
		{[]string{"ggpdes/internal/serve/client.(*Client).do"}, "serve/client"},
		{[]string{"ggpdes.(*runState).buildSegment", "ggpdes.RunContext"}, "ggpdes"},
		{[]string{"main.runReps", "main.main"}, "bench"},
		{[]string{"syscall.Syscall", "net.(*conn).Read"}, "other"},
	} {
		if got := classify(tc.stack); got != tc.want {
			t.Errorf("classify(%q) = %q, want %q", tc.stack[0], got, tc.want)
		}
	}
}

func TestParseTraces(t *testing.T) {
	const text = `File: perfbench
Type: cpu
Duration: 1s, Total samples = 70ms (7.00%)
-----------+-------------------------------------------------------
      50ms   ggpdes/internal/tw.(*Event).before (inline)
             ggpdes/internal/tw.(*Peer).Drain
-----------+-------------------------------------------------------
      1.02s  runtime.scanobject
             runtime.gcDrain
-----------+-------------------------------------------------------
`
	p, err := parseTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"ggpdes/internal/tw.(*Event).before", "ggpdes/internal/tw.(*Peer).Drain"}
	if len(p.stacks) != 2 || strings.Join(p.stacks[0], ",") != strings.Join(want, ",") {
		t.Fatalf("stacks %q, want the first to be %q", p.stacks, want)
	}
	if p.nanos[0] != int64(50*time.Millisecond) || p.nanos[1] != int64(1020*time.Millisecond) {
		t.Fatalf("nanos %v", p.nanos)
	}
	if got := p.layerNanos(); got["tw"] != p.nanos[0] || got[layerGC] != p.nanos[1] {
		t.Fatalf("layers %v", got)
	}
	if _, err := parseTraces("-----------+---\n  fast  main.f\n"); err == nil {
		t.Fatal("a sample value that is not a duration parsed without error")
	}
}

// TestReadProfiles reads a profile written by runtime/pprof back
// through the toolchain's pprof.
func TestReadProfiles(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command:", err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	pprof.StopCPUProfile()
	sink = x
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := readProfiles(path, path)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range p.layerNanos() {
		total += n
	}
	if len(p.stacks) == 0 || total < int64(100*time.Millisecond) {
		t.Fatalf("read %d stacks, %v CPU from two merged copies of a busy 300ms profile", len(p.stacks), time.Duration(total))
	}
}

var sink int
