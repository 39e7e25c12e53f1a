package ann

import (
	"fmt"
	"slices"
)

// BruteForceVector returns the exact k nearest stored vectors to q by
// scanning every vector — no graph traversal, no approximation. It is
// the serving layer's degraded mode: when the HNSW path is circuit-
// broken, an O(n·dim) scan still answers correctly, just slower.
// Ranking and tie-breaking match SearchVector exactly (descending
// score, ties by ascending id).
func (ix *Index) BruteForceVector(q []float64, k int) ([]Result, error) {
	if len(q) != ix.dim {
		return nil, fmt.Errorf("ann: query has dim %d, index has dim %d", len(q), ix.dim)
	}
	if k <= 0 {
		return nil, fmt.Errorf("ann: k must be positive, got %d", k)
	}
	if ix.opts.Metric == MetricCosine {
		qn := make([]float64, len(q))
		copy(qn, q)
		normalize(qn)
		q = qn
	}
	return ix.results(ix.scan(q, k, -1), k, -1), nil
}

// BruteForceName returns the exact k nearest neighbors of an indexed
// entity (excluding itself) by full scan — the degraded-mode
// counterpart of SearchName. Unknown names return an error wrapping
// ErrUnknownName.
func (ix *Index) BruteForceName(name string, k int) ([]Result, error) {
	id, ok := ix.idOf(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownName, name)
	}
	if k <= 0 {
		return nil, fmt.Errorf("ann: k must be positive, got %d", k)
	}
	return ix.results(ix.scan(ix.vec(id), k, id), k, -1), nil
}

// scan computes the exact top-k candidates for q over every stored
// vector, skipping exclude (pass -1 to keep all). q must already be
// normalized for MetricCosine. The k best so far sit in a bounded
// max-heap ordered by candLess, so the scan costs O(n log k) and
// returns exactly the first k of a full sort, ties included.
func (ix *Index) scan(q []float64, k int, exclude int32) []cand {
	n := ix.Len()
	top := candHeap{items: make([]cand, 0, min(k, n))}
	offer := func(d float64, id int) {
		if int32(id) != exclude {
			top.offer(cand{d, int32(id)}, k)
		}
	}
	id := 0
	for ; id+4 <= n; id += 4 {
		a, b, c, d := dist4(q, ix.vec(int32(id)), ix.vec(int32(id+1)), ix.vec(int32(id+2)), ix.vec(int32(id+3)))
		offer(a, id)
		offer(b, id+1)
		offer(c, id+2)
		offer(d, id+3)
	}
	for ; id < n; id++ {
		offer(dist(q, ix.vec(int32(id))), id)
	}
	slices.SortFunc(top.items, candCmp)
	return top.items
}
