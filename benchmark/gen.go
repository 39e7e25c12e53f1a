package main

import "math/rand"

// zipfS is the Zipf exponent of row popularity in featurize traffic:
// a few hot rows, a long tail of cold ones.
const zipfS = 1.1

// zipfDraws returns count indices in [0, n) with Zipf-skewed
// popularity. Which index is hottest is itself drawn from the seed, so
// popularity does not follow table order.
func zipfDraws(seed int64, n, count int) []int {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	z := rand.NewZipf(rng, zipfS, 1, uint64(n-1))
	out := make([]int, count)
	for i := range out {
		out[i] = perm[z.Uint64()]
	}
	return out
}

// uniformDraws returns count indices drawn uniformly from [0, n).
func uniformDraws(seed int64, n, count int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, count)
	for i := range out {
		out[i] = rng.Intn(n)
	}
	return out
}
