package main

import (
	"strings"
	"testing"

	"ggpdes/internal/telemetry"
)

// scrape renders a registry through the real OpenMetrics writer and
// the real strict parser — the same round trip a live ggtop makes.
func scrape(t *testing.T, reg *telemetry.Registry) *exposition {
	t.Helper()
	var b strings.Builder
	if err := telemetry.WriteOpenMetrics(&b, reg.Export()); err != nil {
		t.Fatal(err)
	}
	exp, err := parseOpenMetrics(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// An unclustered replica never registers cluster.* counters, so the
// fleet line must not render.
func TestRenderServiceSkipsFleetWithoutCluster(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("serve.jobs_submitted").Inc()
	var b strings.Builder
	renderService(&b, scrape(t, reg))
	if strings.Contains(b.String(), "fleet") {
		t.Errorf("fleet line rendered without clustering:\n%s", b.String())
	}
}

// A clustered replica's registry carries the cluster.* counters (all
// registered together by cluster.New), and the fleet line renders the
// dedup ledger.
func TestRenderServiceFleetLine(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Gauge("cluster.peers.connected").Set(2)
	reg.Counter("cluster.fills").Add(12)
	reg.Counter("cluster.fills_served").Add(7)
	reg.Counter("cluster.delegated").Add(5)
	reg.Counter("cluster.remote_jobs").Add(9)
	reg.Counter("cluster.failovers").Add(1)
	reg.Counter("cluster.spills").Add(3)
	reg.Counter("serve.simulations").Add(40)
	reg.Counter("serve.dedup_inflight").Add(6)
	var b strings.Builder
	renderService(&b, scrape(t, reg))
	out := b.String()
	for _, want := range []string{
		"fleet   peers up 2", "sims 40", "dedup(inflight) 6",
		"fills 12", "served 7", "delegated 5", "remote 9", "failovers 1", "spills 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet line missing %q:\n%s", want, out)
		}
	}
}
