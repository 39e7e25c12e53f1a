package main

import (
	"math"
	"sort"
	"time"
)

// percentileLadder lists the percentiles a timing may be reported at,
// lowest first.
var percentileLadder = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// rank is the 1-based nearest rank of the p-th percentile of n
// samples. The epsilon keeps binary rounding of p (99.9 is not exact)
// from pushing an exact rank up by one.
func rank(n int, p float64) int {
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// beyond counts the samples ranked above the nearest-rank p-th
// percentile of n samples.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailPercentile returns the highest percentile on the ladder that has
// at least ten samples beyond it among n samples, or 0 when even the
// median has fewer.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if beyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// durationsIn converts durations to float64 values in the given unit.
func durationsIn(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// medianDur is the median of ds in the given unit.
func medianDur(ds []time.Duration, unit time.Duration) float64 {
	return median(durationsIn(ds, unit))
}
