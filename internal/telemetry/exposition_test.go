package telemetry

import (
	"strings"
	"testing"
)

// TestOpenMetricsGolden pins the exposition byte-for-byte for a small
// registry exercising all three kinds, repeated lookups of one name,
// and the unset-gauge skip. Scrapers and the ggtop parser both depend on this
// exact shape.
func TestOpenMetricsGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("tw.rollbacks").Add(2)
	r.Counter("tw.rollbacks").Add(3)
	r.Counter("serve.jobs_completed").Inc()
	r.Gauge("serve.jobs_in_flight").Set(1)
	r.Gauge("serve.jobs_in_flight").Set(2)
	_ = r.Gauge("tw.uncommitted_peak") // never set: must be skipped
	h := r.Histogram("tw.rollback_depth")
	h.Observe(0.5) // bucket 0: [0,1)
	h.Observe(3)   // bucket 2: [2,4)
	h.Observe(3.5)

	var b strings.Builder
	if err := WriteOpenMetrics(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE ggpdes_serve_jobs_completed counter
ggpdes_serve_jobs_completed_total 1
# TYPE ggpdes_tw_rollbacks counter
ggpdes_tw_rollbacks_total 5
# TYPE ggpdes_serve_jobs_in_flight gauge
ggpdes_serve_jobs_in_flight 2
# TYPE ggpdes_tw_rollback_depth histogram
ggpdes_tw_rollback_depth_bucket{le="1"} 1
ggpdes_tw_rollback_depth_bucket{le="2"} 1
ggpdes_tw_rollback_depth_bucket{le="4"} 3
ggpdes_tw_rollback_depth_bucket{le="+Inf"} 3
ggpdes_tw_rollback_depth_sum 7
ggpdes_tw_rollback_depth_count 3
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestOpenMetricsEmptyState(t *testing.T) {
	var b strings.Builder
	if err := WriteOpenMetrics(&b, MetricsState{}); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("empty state produced output: %q", b.String())
	}
}
