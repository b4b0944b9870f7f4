package main

import (
	"math"
	"sort"
)

// tailGrid is the set of percentiles a tail metric may report.
var tailGrid = []float64{0.75, 0.90, 0.95, 0.99, 0.999}

// minTailSamples is the sample count below which no tail is reported.
const minTailSamples = 40

// tailPercentile returns the highest percentile of tailGrid that has at
// least ten of n samples beyond it. With fewer than forty samples no
// percentile qualifies as a tail and ok is false.
func tailPercentile(n int) (q float64, ok bool) {
	if n < minTailSamples {
		return 0, false
	}
	for i := len(tailGrid) - 1; i >= 0; i-- {
		if samplesBeyond(n, tailGrid[i]) >= 10 {
			return tailGrid[i], true
		}
	}
	return 0, false
}

// samplesForTail is the smallest sample count at which q is a tail:
// the count a workload must reach before it may report q.
func samplesForTail(q float64) int {
	for n := minTailSamples; ; n++ {
		if samplesBeyond(n, q) >= 10 {
			return n
		}
	}
}

// samplesBeyond counts the samples strictly above the nearest-rank q
// percentile of n samples.
func samplesBeyond(n int, q float64) int { return n - nearestRank(n, q) }

// nearestRank is the 1-based rank of the q percentile of n samples.
func nearestRank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank q percentile of xs (0 when empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[nearestRank(len(s), q)-1]
}

// median is the midpoint of xs, averaging the two middle values of an
// even-length sample (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) with its
// default "exclusive" method, so spreads match those computed by other
// tools from the same values. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
