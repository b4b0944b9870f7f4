package main

import (
	"fmt"
	"math"
)

// PHOLD's event process, as the model documents it: every LP starts
// with its initial events at uniform offsets on (0, firstMax), and each
// processed event schedules one successor delayMin + Exp(delayMean)
// later. Each initial event is therefore a token whose event times form
// a delayed renewal process, independent of where the token travels, and
// the committed count of a run is the sum of the tokens' event counts
// below the end time.
var phold = struct{ firstMax, delayMin, delayMean float64 }{1.0, 0.1, 0.9}

// pholdCount is the renewal-theory expectation of a PHOLD run's
// committed events, with its standard deviation.
type pholdCount struct {
	Mean, Sigma float64
}

// expectPHOLD returns the expected committed count of a PHOLD run with
// the given number of initial events (tokens) and end time.
func expectPHOLD(tokens int, endTime float64) pholdCount {
	m1, m2 := renewalMoments(endTime)
	v := m2 - m1*m1
	return pholdCount{Mean: float64(tokens) * m1, Sigma: math.Sqrt(float64(tokens) * v)}
}

// check reports whether committed lies within four standard deviations
// of the expectation.
func (c pholdCount) check(committed uint64) error {
	if d := math.Abs(float64(committed) - c.Mean); d > 4*c.Sigma {
		return fmt.Errorf("committed %d is %.1fσ from the renewal expectation %.0f ± %.0f",
			committed, d/c.Sigma, c.Mean, c.Sigma)
	}
	return nil
}

// renewalMoments returns E[N] and E[N²] for one token, where N counts
// event times below t. With S_k the k-th event time, N >= k exactly when
// S_k < t, so E[N] = Σ P(S_k < t) and E[N²] = Σ (2k-1)·P(S_k < t).
func renewalMoments(t float64) (m1, m2 float64) {
	// S_k >= (k-1)·delayMin, so later terms are exactly zero.
	for k := 1; float64(k-1)*phold.delayMin < t; k++ {
		p := probEventBefore(k, t)
		m1 += p
		m2 += float64(2*k-1) * p
	}
	return m1, m2
}

// probEventBefore is P(S_k < t) with S_k = U + (k-1)·min + Gamma(k-1,
// mean) and U uniform on (0, firstMax), integrated over U by Simpson's
// rule.
func probEventBefore(k int, t float64) float64 {
	j := k - 1
	shift := float64(j) * phold.delayMin
	f := func(u float64) float64 { return gammaCDF(j, phold.delayMean, t-u-shift) }
	const n = 256 // even; the integrand is smooth in u
	a := phold.firstMax
	h := a / n
	sum := f(0) + f(a)
	for i := 1; i < n; i++ {
		w := 2.0
		if i%2 == 1 {
			w = 4
		}
		sum += w * f(float64(i)*h)
	}
	return sum * h / 3 / a
}

// gammaCDF is P(G < x) for G ~ Gamma(shape j, scale theta) with integer
// j >= 0 (G = 0 when j = 0), via the Poisson identity
// P(G < x) = P(Poisson(x/theta) >= j). The Poisson terms are built by
// recurrence from e^-lambda, which stays representable for the end
// times the workloads use (x/theta well below 700).
func gammaCDF(j int, theta, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if j == 0 {
		return 1
	}
	lambda := x / theta
	term := math.Exp(-lambda)
	below := 0.0 // P(Poisson(lambda) < j)
	for i := 0; i < j; i++ {
		below += term
		term *= lambda / float64(i+1)
	}
	return math.Max(0, 1-below)
}
