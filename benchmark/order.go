package main

import (
	"fmt"
	"math"
	"sort"
)

// summary is the order statistics of one set of samples. Quantiles use the
// "exclusive" method of Python's statistics.quantiles, so the quartiles
// printed here are the ones a reader recomputes from the raw samples.
type summary struct {
	n                        int
	min, q1, median, q3, max float64
	// tailPermille is the highest of the standard percentiles (p50, p75,
	// p90, p95, p99, p99.9, in per mille) that has at least ten samples
	// beyond it, and tail its value; tailPermille is 0 when n < 20.
	tailPermille int
	tail         float64
}

// tailPercentiles are the candidate report percentiles, in per mille.
var tailPercentiles = []int{500, 750, 900, 950, 990, 999}

// tailPermille returns the highest candidate percentile with at least ten
// of n samples beyond it (n=20 gives p50, n=40 gives p75), or 0 when even
// the median has fewer than ten samples above it.
func tailPermille(n int) int {
	best := 0
	for _, pm := range tailPercentiles {
		if n*(1000-pm) >= 10*1000 {
			best = pm
		}
	}
	return best
}

// quantile returns the p-quantile (0 < p < 1) of ascending xs by the
// exclusive method: position p*(n+1), clamped to [1, n-1] and linearly
// interpolated (extrapolated at the clamped ends, as Python does).
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return sorted[0]
	}
	h := p * float64(n+1)
	j := int(math.Floor(h))
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	return sorted[j-1] + (h-float64(j))*(sorted[j]-sorted[j-1])
}

// median returns the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	return quantile(s, 0.5)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// summarize computes the order statistics of xs.
func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return summary{}
	}
	out := summary{
		n:      len(s),
		min:    s[0],
		q1:     quantile(s, 0.25),
		median: quantile(s, 0.5),
		q3:     quantile(s, 0.75),
		max:    s[len(s)-1],
	}
	if pm := tailPermille(len(s)); pm > 0 {
		out.tailPermille = pm
		out.tail = quantile(s, float64(pm)/1000)
	}
	return out
}

// String renders the summary on one line.
func (s summary) String() string {
	tail := "p-tail n/a (n<20)"
	if s.tailPermille > 0 {
		tail = fmt.Sprintf("p%g=%.4g", float64(s.tailPermille)/10, s.tail)
	}
	return fmt.Sprintf("n=%d min=%.4g q1=%.4g median=%.4g q3=%.4g max=%.4g %s",
		s.n, s.min, s.q1, s.median, s.q3, s.max, tail)
}
