package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer. Spans of one
// repetition or submission share a run id; Parent is the id of the span
// that caused this one (0 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Run    int     `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	ended  bool
	tStart time.Time
	tEnd   time.Time
}

// tracer records spans in memory; a nil tracer records nothing, so the
// untraced runs pay only for a nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, run int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name, tStart: now})
	return len(t.spans)
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.tEnd, s.ended = now, true
}

// durations returns the lengths of every closed span called name, in ms.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.ended {
			out = append(out, float64(s.tEnd.Sub(s.tStart))/1e6)
		}
	}
	return out
}

// write stores every span as one JSON line under dir and returns the
// file's path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		s.Start = float64(s.tStart.Sub(t.t0)) / 1e3
		s.End = float64(s.tEnd.Sub(t.t0)) / 1e3
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
