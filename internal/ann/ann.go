// Package ann provides a dependency-free HNSW (Hierarchical Navigable
// Small World) approximate-nearest-neighbor index over Leva's
// relational embeddings. Entity resolution, token/row matching and
// online `/v1/neighbors` serving all reduce to "top-k most similar
// vectors"; this package answers that in sub-millisecond time over
// collections where the brute-force scan in internal/er is quadratic.
//
// # Determinism contract
//
// Build is fully deterministic for a fixed (vectors, Options) input:
// node levels are drawn from a single rand.Rand seeded with
// Options.Seed in insertion order, nodes are inserted sequentially,
// and every neighbor selection breaks distance ties by node id. Two
// builds of the same input therefore produce byte-identical Encode
// output, at every GOMAXPROCS and worker count — the same property the
// embedding pipeline guarantees, extended to the index artifact so the
// stage cache can treat it as content-addressed.
//
// Search is read-only after Build returns; an *Index may be queried
// from any number of goroutines concurrently.
package ann

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/embed"
)

// Metric selects the vector similarity an index is built for.
type Metric string

const (
	// MetricCosine ranks by cosine similarity. Vectors are normalized
	// to unit length at build (and query) time, so scores are in
	// [-1, 1] and match embed/er cosine exactly for nonzero vectors.
	MetricCosine Metric = "cosine"
	// MetricDot ranks by raw inner product (for vectors whose norm is
	// meaningful, e.g. popularity-scaled embeddings).
	MetricDot Metric = "dot"
)

// maxLevelCap bounds node levels so a hostile or corrupt file can
// never claim an absurd layer count; with mL = 1/ln(M) the probability
// of a legitimate draw reaching 30 is negligible for any real n.
const maxLevelCap = 30

// Options configures an HNSW build. The zero value means "defaults".
type Options struct {
	// M is the maximum number of neighbors kept per node on layers
	// above the base; the base layer keeps 2M. Default 16.
	M int
	// EfConstruction is the beam width used while inserting nodes;
	// larger values build a higher-recall graph more slowly.
	// Default 200.
	EfConstruction int
	// EfSearch is the default query-time beam width, used when a
	// search passes ef <= 0. Larger values trade latency for recall.
	// Default 64.
	EfSearch int
	// Metric selects cosine (default) or dot-product ranking.
	Metric Metric
	// Seed feeds the level generator. Fixed seed + fixed input =
	// byte-identical index (see the package determinism contract).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.M <= 0 {
		o.M = 16
	}
	if o.EfConstruction <= 0 {
		o.EfConstruction = 200
	}
	if o.EfSearch <= 0 {
		o.EfSearch = 64
	}
	if o.Metric == "" {
		o.Metric = MetricCosine
	}
	return o
}

func (o Options) validate() error {
	if o.M < 2 {
		return fmt.Errorf("ann: M must be >= 2, got %d", o.M)
	}
	if o.Metric != MetricCosine && o.Metric != MetricDot {
		return fmt.Errorf("ann: unknown metric %q (want %q or %q)", o.Metric, MetricCosine, MetricDot)
	}
	return nil
}

// ErrUnknownName is returned (wrapped) by SearchName for a name the
// index does not hold.
var ErrUnknownName = errors.New("ann: name not in index")

// Result is one search hit.
type Result struct {
	// ID is the hit's slot in Names() order (stable across save/load).
	ID int
	// Name is the embedded entity name (a token, or "table:rowIdx").
	Name string
	// Score is the similarity under the index metric: cosine
	// similarity for MetricCosine, inner product for MetricDot.
	// Results are ordered by descending score, ties by ascending ID.
	Score float64
}

// Index is an immutable HNSW graph over a fixed vector collection.
// All methods are safe for concurrent use once Build returns.
type Index struct {
	opts  Options
	dim   int
	names []string
	// Exactly one of byName and syms resolves names to ids: BuildVectors
	// and Decode populate the map, Build over an Embedding shares the
	// embedding's interned symbol table instead (no per-name map
	// entries).
	byName map[string]int32
	syms   *embed.SymbolTable
	// vecs holds all vectors row-major (n x dim), unit-normalized for
	// MetricCosine. For a dot-metric Build it aliases the embedding's
	// arena directly — zero copies; the index and the embedding are both
	// immutable after construction.
	vecs     []float64
	levels   []int32
	links    [][][]int32 // links[node][layer] = neighbor ids
	entry    int32
	maxLevel int32
	// quant, when set by Quantize, routes graph traversal through the
	// int8 arena with a float64 re-rank of the final beam (quant.go).
	quant *embed.QuantizedMatrix
	// scratch pools *scratch sized for this index, so a search reuses
	// walk memory instead of allocating it (heap.go). It is a separate
	// allocation because the runtime keeps every used pool reachable
	// through one more collection; embedded, the pool would keep the
	// whole index alive with it.
	scratch *sync.Pool
}

// idOf resolves an entity name to its node id.
func (ix *Index) idOf(name string) (int32, bool) {
	if ix.syms != nil {
		id, ok := ix.syms.Lookup(name)
		return int32(id), ok
	}
	id, ok := ix.byName[name]
	return id, ok
}

// Build indexes every vector of e under opts. Unlike BuildVectors it
// does not copy per entity: the name table is the embedding's interned
// symbol table, and the vector block is the embedding's contiguous
// arena — aliased directly for MetricDot, copied once (one memmove,
// then normalized in place) for MetricCosine. The graph construction
// arithmetic is identical to BuildVectors', so the two produce the same
// index for the same input.
func Build(e *embed.Embedding, opts Options) (*Index, error) {
	if e == nil || e.Len() == 0 {
		return nil, errors.New("ann: cannot build an index over an empty embedding")
	}
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	n, dim := e.Len(), e.Dim
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("ann: %d vectors exceeds the int32 id space", n)
	}
	if dim == 0 {
		return nil, errors.New("ann: zero-dimensional vectors")
	}
	st := e.Symbols()
	// Duplicate names would make id resolution ambiguous; the sorted
	// permutation makes the scan linear.
	sorted := st.SortedIDs()
	for i := 1; i < len(sorted); i++ {
		if st.At(int(sorted[i])) == st.At(int(sorted[i-1])) {
			return nil, fmt.Errorf("ann: duplicate name %q", st.At(int(sorted[i])))
		}
	}
	start := time.Now()
	ix := &Index{
		opts:    opts,
		dim:     dim,
		names:   e.Names(),
		syms:    st,
		levels:  make([]int32, n),
		links:   make([][][]int32, n),
		entry:   -1,
		scratch: new(sync.Pool),
	}
	arena := e.Matrix().Data
	if opts.Metric == MetricCosine {
		ix.vecs = make([]float64, len(arena))
		copy(ix.vecs, arena)
		for i := 0; i < n; i++ {
			normalize(ix.vecs[i*dim : (i+1)*dim])
		}
	} else {
		ix.vecs = arena
	}
	ix.wire(rand.New(rand.NewSource(opts.Seed)))
	buildsTotal.Inc()
	buildSeconds.ObserveDuration(time.Since(start))
	return ix, nil
}

// BuildVectors indexes the given vectors, where vecs[i] is the vector
// for names[i]. Vectors are copied (and normalized for MetricCosine);
// the inputs are not retained.
func BuildVectors(names []string, vecs [][]float64, opts Options) (*Index, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	n := len(names)
	if n == 0 {
		return nil, errors.New("ann: cannot build an index over zero vectors")
	}
	if n != len(vecs) {
		return nil, fmt.Errorf("ann: %d names for %d vectors", n, len(vecs))
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("ann: %d vectors exceeds the int32 id space", n)
	}
	dim := len(vecs[0])
	if dim == 0 {
		return nil, errors.New("ann: zero-dimensional vectors")
	}
	start := time.Now()
	ix := &Index{
		opts:    opts,
		dim:     dim,
		names:   append([]string(nil), names...),
		byName:  make(map[string]int32, n),
		vecs:    make([]float64, n*dim),
		levels:  make([]int32, n),
		links:   make([][][]int32, n),
		entry:   -1,
		scratch: new(sync.Pool),
	}
	for i, name := range ix.names {
		if _, dup := ix.byName[name]; dup {
			return nil, fmt.Errorf("ann: duplicate name %q", name)
		}
		ix.byName[name] = int32(i)
	}
	for i, v := range vecs {
		if len(v) != dim {
			return nil, fmt.Errorf("ann: vector %d has dim %d, want %d", i, len(v), dim)
		}
		row := ix.vecs[i*dim : (i+1)*dim]
		copy(row, v)
		if opts.Metric == MetricCosine {
			normalize(row)
		}
	}

	ix.wire(rand.New(rand.NewSource(opts.Seed)))
	buildsTotal.Inc()
	buildSeconds.ObserveDuration(time.Since(start))
	return ix, nil
}

// wire draws every node's level up front from one seeded stream (the
// only randomness in the whole build), then inserts sequentially, all
// insertions sharing one scratch.
//
// Every adjacency list gets its final capacity before the first
// insertion, carved from one arena: a list holds at most maxConn ids
// between insertions and one more until shrink trims it in place, so
// no list is ever reallocated and the build leaves no dead lists
// scattered through the heap.
func (ix *Index) wire(rng *rand.Rand) {
	mL := 1 / math.Log(float64(ix.opts.M))
	slots := 0
	for i := range ix.levels {
		ix.levels[i] = drawLevel(rng, mL)
		slots += ix.maxConn(0) + 1 + int(ix.levels[i])*(ix.maxConn(1)+1)
	}
	arena := make([]int32, slots)
	for i := range ix.levels {
		ix.links[i] = make([][]int32, ix.levels[i]+1)
		for lvl := range ix.links[i] {
			c := ix.maxConn(int32(lvl)) + 1
			ix.links[i][lvl], arena = arena[:0:c], arena[c:]
		}
	}
	s := newScratch(len(ix.levels), ix.dim)
	for i := range ix.levels {
		ix.insert(s, int32(i))
	}
}

func drawLevel(rng *rand.Rand, mL float64) int32 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	lvl := int32(math.Floor(-math.Log(u) * mL))
	if lvl > maxLevelCap {
		lvl = maxLevelCap
	}
	return lvl
}

// Len returns the number of indexed vectors.
func (ix *Index) Len() int { return len(ix.names) }

// Dim returns the vector dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// Opts returns the (defaulted) build options.
func (ix *Index) Opts() Options { return ix.opts }

// Names returns the indexed names in id order (shared; do not mutate).
func (ix *Index) Names() []string { return ix.names }

// Has reports whether name is indexed.
func (ix *Index) Has(name string) bool {
	_, ok := ix.idOf(name)
	return ok
}

// vec returns the stored (possibly normalized) vector of node id.
func (ix *Index) vec(id int32) []float64 {
	return ix.vecs[int(id)*ix.dim : (int(id)+1)*ix.dim]
}

// dist is the internal ordering key: negated inner product, so smaller
// is more similar under both metrics (cosine vectors are pre-normalized).
//
// Every float distance in the package sums s += q[i]*v[i] with i
// ascending, in this order. dist4 and dist2 keep that order in each
// lane, so a batched distance is bit-identical to dist; only the
// integer int8 kernel (distQ) may reassociate its sum. IEEE
// multiplication commutes, so dist(a, b) == dist(b, a) bit for bit.
func dist(q, v []float64) float64 {
	v = v[:len(q)]
	var s float64
	for i, x := range q {
		s += x * v[i]
	}
	return -s
}

// dist4 is dist against four vectors in one pass over q. Each lane is
// its own accumulator summing in dist's order, so each result is
// bit-identical to dist; the lanes overlap only so the CPU can run
// four dependency chains at once instead of one.
func dist4(q, a, b, c, d []float64) (float64, float64, float64, float64) {
	a, b, c, d = a[:len(q)], b[:len(q)], c[:len(q)], d[:len(q)]
	var sa, sb, sc, sd float64
	for i, x := range q {
		sa += x * a[i]
		sb += x * b[i]
		sc += x * c[i]
		sd += x * d[i]
	}
	return -sa, -sb, -sc, -sd
}

// dist2 is the two-lane form of dist4, for batch remainders.
func dist2(q, a, b []float64) (float64, float64) {
	a, b = a[:len(q)], b[:len(q)]
	var sa, sb float64
	for i, x := range q {
		sa += x * a[i]
		sb += x * b[i]
	}
	return -sa, -sb
}

// distances sets out[i] = dist(q, vec(ids[i])) for every i, four lanes
// at a time, and returns out resized to len(ids).
func (ix *Index) distances(q []float64, ids []int32, out []float64) []float64 {
	out = slices.Grow(out[:0], len(ids))[:len(ids)]
	i := 0
	for ; i+4 <= len(ids); i += 4 {
		out[i], out[i+1], out[i+2], out[i+3] = dist4(q, ix.vec(ids[i]), ix.vec(ids[i+1]), ix.vec(ids[i+2]), ix.vec(ids[i+3]))
	}
	if i+2 <= len(ids) {
		out[i], out[i+1] = dist2(q, ix.vec(ids[i]), ix.vec(ids[i+1]))
		i += 2
	}
	if i < len(ids) {
		out[i] = dist(q, ix.vec(ids[i]))
	}
	return out
}

// cand is a (distance, id) pair; every ordering decision in the index
// goes through candLess so distance ties always break by ascending id —
// the root of the determinism contract.
type cand struct {
	dist float64
	id   int32
}

func candLess(a, b cand) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.id < b.id
}

// candCmp is candLess as a three-way comparison, for slices.SortFunc.
func candCmp(a, b cand) int {
	switch {
	case candLess(a, b):
		return -1
	case candLess(b, a):
		return 1
	}
	return 0
}

// query is what one graph walk measures distances to: the float
// vector, or its int8 codes when the walk runs on the quantized arena.
type query struct {
	f      []float64
	q8     []int8 // non-nil: traverse on int8 distances
	qScale float64
}

// walkDist is dist for a walk, on int8 codes when q carries them.
func (ix *Index) walkDist(q *query, id int32) float64 {
	if q.q8 != nil {
		return ix.distQ(q.q8, q.qScale, id)
	}
	return dist(q.f, ix.vec(id))
}

// walkDists is distances for a walk, on int8 codes when q carries them.
func (ix *Index) walkDists(q *query, ids []int32, out []float64) []float64 {
	if q.q8 == nil {
		return ix.distances(q.f, ids, out)
	}
	out = slices.Grow(out[:0], len(ids))[:len(ids)]
	for i, id := range ids {
		out[i] = ix.distQ(q.q8, q.qScale, id)
	}
	return out
}

// SearchVector returns the k nearest stored vectors to q, best first.
// ef <= 0 uses Options.EfSearch; ef is raised to k when smaller.
func (ix *Index) SearchVector(q []float64, k, ef int) ([]Result, error) {
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
	return ix.search(q, k, ef, -1), nil
}

// SearchName returns the k nearest neighbors of an indexed entity,
// excluding the entity itself. Unknown names return an error wrapping
// ErrUnknownName.
func (ix *Index) SearchName(name string, k, ef int) ([]Result, error) {
	id, ok := ix.idOf(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownName, name)
	}
	if k <= 0 {
		return nil, fmt.Errorf("ann: k must be positive, got %d", k)
	}
	return ix.search(ix.vec(id), k, ef, id), nil
}

// results converts hits (best first) to at most k Results, skipping
// the id exclude.
func (ix *Index) results(hits []cand, k int, exclude int32) []Result {
	out := make([]Result, 0, min(k, len(hits)))
	for _, c := range hits {
		if c.id == exclude {
			continue
		}
		if len(out) == k {
			break
		}
		out = append(out, Result{ID: int(c.id), Name: ix.names[c.id], Score: -c.dist})
	}
	return out
}

// search runs the layered HNSW query and returns the k best hits other
// than exclude (-1 excludes none). q must already be normalized for
// MetricCosine. On a quantized index the walk runs on int8 distances
// and the final beam is re-ranked in float64 (quant.go).
func (ix *Index) search(q []float64, k, ef int, exclude int32) []Result {
	start := time.Now()
	want := k
	if exclude >= 0 {
		want++ // the excluded entity is its own nearest neighbor
	}
	if ef <= 0 {
		ef = ix.opts.EfSearch
	}
	if ef < want {
		ef = want
	}
	s := ix.getScratch()
	defer ix.scratch.Put(s)
	walk := query{f: q}
	if ix.quant != nil {
		walk.q8 = s.q8
		walk.qScale = embed.QuantizeRow(q, s.q8)
	}
	ep := ix.entry
	for lc := ix.maxLevel; lc > 0; lc-- {
		ep = ix.greedy(s, &walk, ep, lc)
	}
	w := ix.searchLayer(s, &walk, ep, ef, 0)
	if ix.quant != nil {
		ix.rerank(s, q, w)
	}
	if len(w) > want {
		w = w[:want]
	}
	out := ix.results(w, k, exclude)
	queriesTotal.Inc()
	querySeconds.ObserveDuration(time.Since(start))
	return out
}

// greedy descends one layer: repeatedly move to the best neighbor
// until no neighbor improves on the current node.
func (ix *Index) greedy(s *scratch, q *query, ep int32, lvl int32) int32 {
	best := cand{ix.walkDist(q, ep), ep}
	for {
		nbs := ix.linksAt(best.id, lvl)
		s.dists = ix.walkDists(q, nbs, s.dists)
		improved := false
		for i, nb := range nbs {
			if c := (cand{s.dists[i], nb}); candLess(c, best) {
				best = c
				improved = true
			}
		}
		if !improved {
			return best.id
		}
	}
}

func (ix *Index) linksAt(id, lvl int32) []int32 {
	ls := ix.links[id]
	if int(lvl) >= len(ls) {
		return nil
	}
	return ls[lvl]
}

// searchLayer is the HNSW beam search on one layer: expand the closest
// unexpanded candidate until it cannot improve the current ef-sized
// result set. Each expansion first collects the node's unvisited
// neighbors in link order, then measures them in one batch, then makes
// the heap decisions in that same order: a distance never depends on
// heap state, so the beam is what one-at-a-time expansion builds.
// Returns candidates sorted best-first, in s's memory: valid until the
// next walk on s.
func (ix *Index) searchLayer(s *scratch, q *query, ep int32, ef int, lvl int32) []cand {
	s.newWalk()
	s.visited[ep] = s.stamp
	d0 := cand{ix.walkDist(q, ep), ep}
	frontier, beam := &s.frontier, &s.beam
	frontier.reset()
	beam.reset()
	frontier.push(d0)
	beam.push(d0)
	for frontier.len() > 0 {
		c := frontier.pop()
		if beam.len() >= ef && candLess(beam.peek(), c) {
			break
		}
		ids := s.ids[:0]
		for _, nb := range ix.linksAt(c.id, lvl) {
			if s.visited[nb] != s.stamp {
				s.visited[nb] = s.stamp
				ids = append(ids, nb)
			}
		}
		s.ids = ids
		s.dists = ix.walkDists(q, ids, s.dists)
		for i, nb := range ids {
			d := cand{s.dists[i], nb}
			if beam.len() < ef || candLess(d, beam.peek()) {
				frontier.push(d)
				beam.push(d)
				if beam.len() > ef {
					beam.pop()
				}
			}
		}
	}
	slices.SortFunc(beam.items, candCmp)
	return beam.items
}

// maxConn is the stored-degree cap: 2M on the base layer, M above.
func (ix *Index) maxConn(lvl int32) int {
	if lvl == 0 {
		return 2 * ix.opts.M
	}
	return ix.opts.M
}

// insert wires node i into the graph (nodes 0..i-1 already inserted).
func (ix *Index) insert(s *scratch, i int32) {
	if ix.entry < 0 {
		ix.entry = i
		ix.maxLevel = ix.levels[i]
		return
	}
	q := query{f: ix.vec(i)}
	ep := ix.entry
	for lc := ix.maxLevel; lc > ix.levels[i]; lc-- {
		ep = ix.greedy(s, &q, ep, lc)
	}
	top := ix.levels[i]
	if top > ix.maxLevel {
		top = ix.maxLevel
	}
	for lc := top; lc >= 0; lc-- {
		w := ix.searchLayer(s, &q, ep, ix.opts.EfConstruction, lc)
		nbs := ix.selectNeighbors(s, w, ix.opts.M, ix.links[i][lc])
		ix.links[i][lc] = nbs
		limit := ix.maxConn(lc)
		for _, nb := range nbs {
			ix.links[nb][lc] = append(ix.links[nb][lc], i)
			if len(ix.links[nb][lc]) > limit {
				ix.shrink(s, nb, lc, limit)
			}
		}
		ep = w[0].id
	}
	if ix.levels[i] > ix.maxLevel {
		ix.entry = i
		ix.maxLevel = ix.levels[i]
	}
}

// selectNeighbors is the HNSW heuristic: walk candidates (sorted by
// distance to the query) best-first, keeping one only if it is closer
// to the query than to every neighbor already kept (so the kept set
// spreads across directions instead of clustering), then fill any
// remaining slots with the nearest pruned candidates to preserve
// connectivity. The ids are written over dst, which must not alias
// cands' memory.
func (ix *Index) selectNeighbors(s *scratch, cands []cand, m int, dst []int32) []int32 {
	dst = dst[:0]
	if len(cands) <= m {
		for _, c := range cands {
			dst = append(dst, c.id)
		}
		return dst
	}
	kept := s.kept[:0]
	for _, c := range cands {
		if len(kept) == m {
			break
		}
		if ix.closerThanKept(c, kept) {
			kept = append(kept, c.id)
		}
	}
	for _, c := range cands {
		if len(kept) == m {
			break
		}
		if !slices.Contains(kept, c.id) {
			kept = append(kept, c.id)
		}
	}
	s.kept = kept
	return append(dst, kept...)
}

// closerThanKept reports whether candidate c is closer to the query
// (c.dist) than to every kept neighbor. The distances to the kept set
// run four lanes at a time with c as the query side, which dist's
// symmetry allows; a group may measure up to three neighbors past the
// one that rejects c, and those distances are discarded.
func (ix *Index) closerThanKept(c cand, kept []int32) bool {
	v := ix.vec(c.id)
	j := 0
	for ; j+4 <= len(kept); j += 4 {
		a, b, e, f := dist4(v, ix.vec(kept[j]), ix.vec(kept[j+1]), ix.vec(kept[j+2]), ix.vec(kept[j+3]))
		if a < c.dist || b < c.dist || e < c.dist || f < c.dist {
			return false
		}
	}
	if j+2 <= len(kept) {
		a, b := dist2(v, ix.vec(kept[j]), ix.vec(kept[j+1]))
		if a < c.dist || b < c.dist {
			return false
		}
		j += 2
	}
	return j == len(kept) || !(dist(v, ix.vec(kept[j])) < c.dist)
}

// shrink re-selects node id's neighbor list on lvl down to m entries
// using the same heuristic insertion uses, in place.
func (ix *Index) shrink(s *scratch, id, lvl int32, m int) {
	nbs := ix.links[id][lvl]
	s.dists = ix.distances(ix.vec(id), nbs, s.dists)
	cands := s.cands[:0]
	for i, nb := range nbs {
		cands = append(cands, cand{s.dists[i], nb})
	}
	slices.SortFunc(cands, candCmp)
	s.cands = cands
	ix.links[id][lvl] = ix.selectNeighbors(s, cands, m, nbs)
}

func normalize(v []float64) {
	var n float64
	for _, x := range v {
		n += x * x
	}
	if n == 0 {
		return
	}
	inv := 1 / math.Sqrt(n)
	for i := range v {
		v[i] *= inv
	}
}
