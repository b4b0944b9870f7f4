package main

import "testing"

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{39, 0, false},
		{40, 0.75, true},
		{99, 0.75, true},
		{100, 0.90, true},
		{199, 0.90, true},
		{200, 0.95, true},
		{999, 0.95, true},
		{1000, 0.99, true},
		{10000, 0.999, true},
	} {
		q, ok := tailPercentile(tc.n)
		if q != tc.q || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, q, ok, tc.q, tc.ok)
		}
		if ok && samplesBeyond(tc.n, q) < 10 {
			t.Errorf("n=%d: only %d samples beyond p%v", tc.n, samplesBeyond(tc.n, q), q*100)
		}
	}
	for _, q := range tailGrid {
		n := samplesForTail(q)
		if got, _ := tailPercentile(n); got < q {
			t.Errorf("samplesForTail(%v) = %d, where the tail is only p%v", q, n, got*100)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i) // 1..40 reversed
	}
	if got := percentile(xs, 0.75); got != 30 {
		t.Fatalf("p75 of 1..40 = %v, want 30 (ten samples beyond)", got)
	}
	if got := median(xs); got != 20.5 {
		t.Fatalf("median of 1..40 = %v, want 20.5", got)
	}
}

// TestQuartilesMatchPython pins statistics.quantiles(xs, n=4) outputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
		{[]float64{3, 1, 2}, 1, 2, 3},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}
