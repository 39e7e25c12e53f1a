package ann

// candHeap is a binary heap of (distance, id) pairs with the tie-break
// ordering of candLess. min=true pops the closest candidate first (the
// expansion frontier); min=false pops the farthest first (the bounded
// result set, where pop evicts the worst). A hand-rolled heap instead
// of container/heap keeps the hot path free of interface boxing.
type candHeap struct {
	items []cand
	min   bool
}

// before reports whether items[i] should sit above items[j].
func (h *candHeap) before(i, j int) bool {
	if h.min {
		return candLess(h.items[i], h.items[j])
	}
	return candLess(h.items[j], h.items[i])
}

func (h *candHeap) len() int { return len(h.items) }

// reset empties the heap, keeping its memory.
func (h *candHeap) reset() { h.items = h.items[:0] }

// peek returns the top without removing it (closest for min, farthest
// for max). Callers check len() first.
func (h *candHeap) peek() cand { return h.items[0] }

func (h *candHeap) push(c cand) {
	h.items = append(h.items, c)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.before(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *candHeap) pop() cand {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	h.down(0)
	return top
}

// down sifts items[i] toward the leaves until the heap order holds.
func (h *candHeap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.before(l, best) {
			best = l
		}
		if r < n && h.before(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.items[i], h.items[best] = h.items[best], h.items[i]
		i = best
	}
}

// offer keeps c if it is among the k best offered so far. The heap must
// be a max-heap (min=false): its top is the worst kept entry, which c
// replaces when it is better and the heap already holds k.
func (h *candHeap) offer(c cand, k int) {
	if len(h.items) < k {
		h.push(c)
		return
	}
	if candLess(c, h.items[0]) {
		h.items[0] = c
		h.down(0)
	}
}

// scratch is the working memory of graph walks over one index: the
// visited stamps, both heaps and the batch buffers. Build threads one
// scratch through every insertion; searches borrow one from the
// index's pool, so concurrent searches never share one and a search
// allocates nothing proportional to n.
type scratch struct {
	// visited[id] == stamp marks id as seen by the current walk. Each
	// walk bumps stamp instead of clearing the array; the array is
	// cleared only when stamp wraps (hnswlib's VisitedListPool).
	visited []uint32
	stamp   uint32

	frontier, beam candHeap
	ids            []int32   // one expansion's unvisited neighbors
	dists          []float64 // their distances
	cands          []cand    // shrink's re-ranked neighbor list
	kept           []int32   // selectNeighbors' kept set
	q8             []int8    // the int8 codes of a quantized query
}

func newScratch(n, dim int) *scratch {
	return &scratch{
		visited:  make([]uint32, n),
		frontier: candHeap{min: true},
		q8:       make([]int8, dim),
	}
}

// newWalk starts a walk: no node is marked visited.
func (s *scratch) newWalk() {
	s.stamp++
	if s.stamp == 0 {
		clear(s.visited)
		s.stamp = 1
	}
}

// getScratch borrows search scratch from the index's pool; return it
// with ix.scratch.Put. The pool belongs to the index, so scratch sized
// for one index never serves another.
func (ix *Index) getScratch() *scratch {
	if s, ok := ix.scratch.Get().(*scratch); ok {
		return s
	}
	return newScratch(ix.Len(), ix.dim)
}
