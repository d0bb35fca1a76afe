package main

import (
	"math"
	"testing"
)

func TestTailPermille(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 0}, {19, 0}, {20, 500}, {39, 500}, {40, 750}, {99, 750},
		{100, 900}, {200, 950}, {1000, 990}, {10000, 999},
	} {
		if got := tailPermille(tc.n); got != tc.want {
			t.Errorf("tailPermille(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, m, q3  float64
		min, max   float64
		tailPerMil int
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 1, 10, 0},
		{[]float64{3, 1, 2}, 1, 2, 3, 1, 3, 0},
		{[]float64{5, 1}, 0, 3, 6, 1, 5, 0}, // clamped ends extrapolate
		{[]float64{7, 7, 7, 7}, 7, 7, 7, 7, 7, 0},
		{seq(20), 5.25, 10.5, 15.75, 1, 20, 500},
		{seq(40), 10.25, 20.5, 30.75, 1, 40, 750},
	} {
		s := summarize(tc.xs)
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"q1", s.q1, tc.q1}, {"median", s.median, tc.m}, {"q3", s.q3, tc.q3},
			{"min", s.min, tc.min}, {"max", s.max, tc.max},
		} {
			if math.Abs(c.got-c.want) > 1e-12 {
				t.Errorf("%v: %s = %v, want %v", tc.xs, c.name, c.got, c.want)
			}
		}
		if s.n != len(tc.xs) || s.tailPermille != tc.tailPerMil {
			t.Errorf("%v: n=%d tail=p%d, want n=%d tail=p%d", tc.xs, s.n, s.tailPermille, len(tc.xs), tc.tailPerMil)
		}
		if s.tailPermille == 500 && s.tail != s.median {
			t.Errorf("%v: p50 %v differs from the median %v", tc.xs, s.tail, s.median)
		}
	}
}

func TestMedianDoesNotReorderInput(t *testing.T) {
	xs := []float64{3, 1, 2, 10}
	if got := median(xs); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if xs[0] != 3 || xs[3] != 10 {
		t.Fatalf("median sorted its input: %v", xs)
	}
	if got := median([]float64{4}); got != 4 {
		t.Fatalf("median of one sample = %v, want 4", got)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: summarize must sort
	}
	return xs
}
