package main

import (
	"bytes"
	"os"
	"testing"
)

// TestManifest keeps BENCHMARK.json at the repository root in step with
// the metric and workload tables; regenerate it with
// `bash perfbench/run.sh manifest > BENCHMARK.json`.
func TestManifest(t *testing.T) {
	var buf bytes.Buffer
	if err := writeManifest(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate it:\n%s", buf.Bytes())
	}
}
