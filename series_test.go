package ggpdes

import (
	"strings"
	"sync"
	"testing"

	"ggpdes/internal/telemetry"
)

// TestSeriesPreservesTrajectories is the trajectory-invariance A/B:
// recording a per-round series reads engine state only and charges
// zero simulated cycles, so a run with a Series attached must commit
// the same events in the same simulated time as one without.
func TestSeriesPreservesTrajectories(t *testing.T) {
	bare, err := Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg()
	cfg.Series = &SeriesOptions{}
	cfg.Telemetry = NewRegistry()
	observed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bare.CommittedEvents != observed.CommittedEvents ||
		bare.TotalCycles != observed.TotalCycles ||
		bare.WallClockSeconds != observed.WallClockSeconds ||
		bare.GVTRounds != observed.GVTRounds {
		t.Fatalf("series recording perturbed the trajectory:\nbare     %d events %d cycles %v wall %d rounds\nobserved %d events %d cycles %v wall %d rounds",
			bare.CommittedEvents, bare.TotalCycles, bare.WallClockSeconds, bare.GVTRounds,
			observed.CommittedEvents, observed.TotalCycles, observed.WallClockSeconds, observed.GVTRounds)
	}
	if len(observed.Series) == 0 {
		t.Fatal("no series points recorded")
	}
	if uint64(len(observed.Series)) != observed.GVTRounds {
		t.Fatalf("%d series points for %d GVT rounds", len(observed.Series), observed.GVTRounds)
	}
	if bare.Series != nil {
		t.Fatal("run without SeriesOptions returned a series")
	}
}

func TestSeriesPointShape(t *testing.T) {
	cfg := quickCfg()
	cfg.Series = &SeriesOptions{}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prevRound, prevGVT := 0, -1.0
	for _, pt := range res.Series {
		if pt.Round != prevRound+1 {
			t.Fatalf("rounds not contiguous: %d after %d", pt.Round, prevRound)
		}
		if pt.GVT < prevGVT {
			t.Fatalf("GVT regressed: %g after %g", pt.GVT, prevGVT)
		}
		prevRound, prevGVT = pt.Round, pt.GVT
		if len(pt.ThreadLVTs) != cfg.Threads {
			t.Fatalf("round %d: %d thread LVTs for %d threads", pt.Round, len(pt.ThreadLVTs), cfg.Threads)
		}
		if pt.HorizonWidth < 0 || pt.HorizonRoughness < 0 {
			t.Fatalf("round %d: negative horizon stats %+v", pt.Round, pt)
		}
		if pt.MaxLVT-pt.MinLVT != pt.HorizonWidth {
			t.Fatalf("round %d: width %g != max-min %g", pt.Round, pt.HorizonWidth, pt.MaxLVT-pt.MinLVT)
		}
		if pt.CommitRatio < 0 || pt.CommitRatio > 1 {
			t.Fatalf("round %d: commit ratio %g out of range", pt.Round, pt.CommitRatio)
		}
	}
	last := res.Series[len(res.Series)-1]
	if last.GVT < cfg.EndTime {
		t.Fatalf("final series GVT %g below end time %g", last.GVT, cfg.EndTime)
	}
	// The sample fires at GVT publication, before that round's fossil
	// collection commits its batch, so the last point trails the final
	// total but never exceeds it.
	if last.Committed == 0 || last.Committed > res.CommittedEvents {
		t.Fatalf("final committed %d inconsistent with results %d", last.Committed, res.CommittedEvents)
	}
}

func TestSeriesCSVThroughConfig(t *testing.T) {
	var csv strings.Builder
	cfg := quickCfg()
	cfg.Series = &SeriesOptions{CSV: &csv}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(csv.String(), "\n"), "\n")
	if len(lines) != len(res.Series)+1 {
		t.Fatalf("CSV has %d lines for %d points", len(lines), len(res.Series))
	}
	if !strings.HasPrefix(lines[0], "round,gvt,") {
		t.Fatalf("missing header: %q", lines[0])
	}
}

// TestSharedRegistryConcurrentRuns hammers one external registry with
// parallel jobs recording through their cached handles while other
// goroutines scrape snapshots and the OpenMetrics exposition — the
// serving layer's steady state, checked standalone under -race.
func TestSharedRegistryConcurrentRuns(t *testing.T) {
	reg := NewRegistry()
	const jobs = 8
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					var b strings.Builder
					if err := telemetry.WriteOpenMetrics(&b, reg.Snapshot()); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	var wg sync.WaitGroup
	totals := make([]uint64, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := quickCfg()
			cfg.Seed = uint64(i + 1)
			cfg.Telemetry = reg
			cfg.Series = &SeriesOptions{Limit: 64}
			res, err := Run(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			totals[i] = res.CommittedEvents
		}(i)
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()
	var want uint64
	for _, v := range totals {
		want += v
	}
	if got := reg.Counters()["tw.committed_events"]; got != want {
		t.Fatalf("shared registry committed %d, runs committed %d", got, want)
	}
}
