package ann

import (
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/embed"
)

// int8 search path. Quantize attaches a symmetric int8 arena (see
// embed.QuantizedMatrix) to a built or loaded index; search's graph
// walk then runs on int8 dot products with int32 accumulation — 8x
// less memory traffic per distance — and the final beam is re-ranked
// exactly in float64 before truncation to k, which is what keeps
// recall@10 >= 0.95 against brute force (asserted in quant_test.go).
// The float vectors are retained for the re-rank; under an mmap'd
// bundle they are file-backed pages the kernel can evict, so the
// resident per-vector cost of a quantized index is the int8 arena.

// maxQuantDim bounds the dimension so the int32 accumulator cannot
// overflow: 127*127*maxQuantDim < 2^31.
const maxQuantDim = 1 << 17

// Quantize switches the index's graph traversal to int8 arithmetic.
// When q is a quantized form of the index's own vector layout — same
// shape, and the metric is dot, whose vectors are stored raw — it is
// adopted directly (zero copy: a bundle's quant section serves
// straight from its buffer). Otherwise the index quantizes its stored
// vectors (normalized ones, for cosine) itself; pass nil to force
// that. Quantize must complete before the index is searched; it is
// not safe to call concurrently with searches.
func (ix *Index) Quantize(q *embed.QuantizedMatrix) error {
	if ix.dim > maxQuantDim {
		return fmt.Errorf("ann: cannot quantize dim %d (int32 dot-product accumulation is exact only up to dim %d)", ix.dim, maxQuantDim)
	}
	n := len(ix.names)
	if q != nil && ix.opts.Metric == MetricDot && q.Rows == n && q.Cols == ix.dim {
		ix.quant = q
		return nil
	}
	qm := &embed.QuantizedMatrix{
		Rows:   n,
		Cols:   ix.dim,
		Data:   make([]int8, n*ix.dim),
		Scales: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		qm.Scales[i] = embed.QuantizeRow(ix.vec(int32(i)), qm.Data[i*ix.dim:(i+1)*ix.dim])
	}
	ix.quant = qm
	return nil
}

// Quantized reports whether searches run on the int8 arena.
func (ix *Index) Quantized() bool { return ix.quant != nil }

// QuantBytes is the quantized arena's memory footprint (0 when the
// index is not quantized). Compare with 8*Len()*Dim() for the float
// arena.
func (ix *Index) QuantBytes() int64 {
	if ix.quant == nil {
		return 0
	}
	return ix.quant.Bytes()
}

// SharesStorage reports whether the index borrows memory owned by e —
// the interned symbol table Build shares, or the vector arena a
// dot-metric Build aliases — rather than holding private copies. A
// serving layer about to unmap the buffer behind e must keep that
// buffer alive while an index for which this returns true is still
// queryable. Indexes restored by Load/Decode own all their storage
// and always return false.
func (ix *Index) SharesStorage(e *embed.Embedding) bool {
	if e == nil {
		return false
	}
	if ix.syms != nil && ix.syms == e.Symbols() {
		return true
	}
	a, b := ix.vecs, e.Matrix().Data
	return len(a) > 0 && len(b) > 0 && unsafe.SliceData(a) == unsafe.SliceData(b)
}

// distQ is dist over the int8 arena: negated reconstructed inner
// product. Integer addition is exact and associative (int32 wraps
// modulo 2^32, and dim <= maxQuantDim rules out overflow anyway), so
// the four independent accumulators give the same sum as one, and
// quantized traversal is as deterministic as the float path.
func (ix *Index) distQ(q8 []int8, qScale float64, id int32) float64 {
	row := ix.quant.Row(int(id))
	row = row[:len(q8)]
	var a0, a1, a2, a3 int32
	i := 0
	for ; i+4 <= len(q8); i += 4 {
		a0 += int32(q8[i]) * int32(row[i])
		a1 += int32(q8[i+1]) * int32(row[i+1])
		a2 += int32(q8[i+2]) * int32(row[i+2])
		a3 += int32(q8[i+3]) * int32(row[i+3])
	}
	for ; i < len(q8); i++ {
		a0 += int32(q8[i]) * int32(row[i])
	}
	return -(qScale * ix.quant.Scales[id] * float64(a0+a1+a2+a3))
}

// rerank replaces the int8 distances of a quantized walk's final beam w
// with exact float64 ones to q and re-sorts it. Re-ranking the whole
// beam (up to ef candidates) rather than a fixed top-C costs one float
// pass over at most ef vectors and removes the ordering error
// quantization introduces among the survivors.
func (ix *Index) rerank(s *scratch, q []float64, w []cand) {
	ids := s.ids[:0]
	for _, c := range w {
		ids = append(ids, c.id)
	}
	s.ids = ids
	s.dists = ix.distances(q, ids, s.dists)
	for i := range w {
		w[i].dist = s.dists[i]
	}
	slices.SortFunc(w, candCmp)
	quantRerankedTotal.Add(float64(len(w)))
	quantQueriesTotal.Inc()
}
