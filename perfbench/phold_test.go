package main

import (
	"math"
	"math/rand"
	"testing"
)

// TestExpectPHOLDMatchesSimulation draws the token process directly and
// compares its sample mean and variance with the renewal computation.
func TestExpectPHOLDMatchesSimulation(t *testing.T) {
	const tokens, end = 40000, 40.0
	r := rand.New(rand.NewSource(1))
	var sum, sumSq float64
	for i := 0; i < tokens; i++ {
		n := 0
		for ts := r.Float64() * phold.firstMax; ts < end; ts += phold.delayMin + r.ExpFloat64()*phold.delayMean {
			n++
		}
		sum += float64(n)
		sumSq += float64(n * n)
	}
	mean := sum / tokens
	variance := sumSq/tokens - mean*mean
	m1, m2 := renewalMoments(end)
	if math.Abs(mean-m1) > 0.1 {
		t.Errorf("E[N]: simulated %.3f, computed %.3f", mean, m1)
	}
	if v := m2 - m1*m1; math.Abs(variance-v)/v > 0.05 {
		t.Errorf("Var[N]: simulated %.3f, computed %.3f", variance, v)
	}
}

// TestExpectPHOLDAsymptote checks the renewal theorem's long-run form:
// E[N(t)] ≈ (t - E[U])/μ + E[X²]/(2μ²) with μ = 1 and E[X²] = 1.81.
func TestExpectPHOLDAsymptote(t *testing.T) {
	m1, _ := renewalMoments(40)
	if want := 39.5 + 1.81/2; math.Abs(m1-want) > 1e-3 {
		t.Fatalf("E[N(40)] = %.5f, want %.5f", m1, want)
	}
	c := expectPHOLD(1024, 40)
	if math.Abs(c.Mean-41375) > 1 || math.Abs(c.Sigma-182) > 2 {
		t.Fatalf("1024 tokens: %.1f ± %.1f, want ≈41375 ± 182", c.Mean, c.Sigma)
	}
	if err := c.check(41625); err != nil {
		t.Fatal(err)
	}
	if err := c.check(41375 + 5*182); err == nil {
		t.Fatal("a count 5σ off passed the check")
	}
}
