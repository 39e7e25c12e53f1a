package main

import (
	"slices"
	"testing"
)

func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	for name, draw := range map[string]func(seed int64, n, count int) []int{
		"zipf":    zipfDraws,
		"uniform": uniformDraws,
	} {
		a, b := draw(7, 500, 2000), draw(7, 500, 2000)
		if !slices.Equal(a, b) {
			t.Errorf("%s: same seed gave different draws", name)
		}
		if slices.Equal(a, draw(8, 500, 2000)) {
			t.Errorf("%s: seeds 7 and 8 gave the same draws", name)
		}
		for _, x := range a {
			if x < 0 || x >= 500 {
				t.Fatalf("%s: draw %d outside [0, 500)", name, x)
			}
		}
	}
}

func TestZipfIsSkewedAndUniformIsNot(t *testing.T) {
	top := func(xs []int) float64 {
		counts := map[int]int{}
		best := 0
		for _, x := range xs {
			counts[x]++
			best = max(best, counts[x])
		}
		return float64(best) / float64(len(xs))
	}
	const n, count = 1000, 20000
	if share := top(zipfDraws(1, n, count)); share < 0.1 {
		t.Errorf("hottest zipf row has share %.3f, want a skewed draw (>= 0.1)", share)
	}
	if share := top(uniformDraws(1, n, count)); share > 0.01 {
		t.Errorf("hottest uniform row has share %.3f, want <= 0.01", share)
	}
}
