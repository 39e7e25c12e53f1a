package ann_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"repro/internal/ann"
)

// TestBuildEncodingPinned pins the index encoding and search results
// across versions. Every digest below was computed with the scalar
// kernels (one dot-product loop per distance, a map of visited nodes,
// full sorts) before the lane-batched kernels replaced them. The
// batched kernels keep each float summation in the same order, so they
// must reproduce these bytes exactly. A kernel change that moves a
// single bit of the graph or of a score fails here; such a change must
// re-pin on purpose and say why.
//
// The digests hold where the compiler rounds every product before the
// add, as it does on amd64. Go may fuse x*y+z into one rounding on
// other architectures (arm64, ppc64le, s390x, riscv64); there every
// float sum, and so every digest, differs, and the test skips.
func TestBuildEncodingPinned(t *testing.T) {
	if fusesMulAdd() {
		t.Skip("this build fuses multiply-add; the pinned digests were computed without fusion")
	}
	names, vecs := ann.RandomCollection(1200, 19, 3)
	// Every vector of the first 300 three times over: distances tie
	// everywhere, so the id tie-break decides every order.
	var dupNames []string
	var dupVecs [][]float64
	for c := 0; c < 3; c++ {
		for i := 0; i < 300; i++ {
			dupNames = append(dupNames, fmt.Sprintf("%s#%d", names[i], c))
			dupVecs = append(dupVecs, vecs[i])
		}
	}
	cases := []struct {
		name           string
		build          func() (*ann.Index, error)
		encode, search string
	}{
		{
			name: "collection/cosine",
			build: func() (*ann.Index, error) {
				return ann.BuildVectors(names, vecs, ann.Options{M: 12, EfConstruction: 100, Seed: 5})
			},
			encode: "ed1293d0d87165c8c09e48d79c3feb5ec09a8f5dd9bd582a170bf2a4b222a8e1",
			search: "58eb708c10d6f9fbae46497f3f712ae4bf1db1d29913c866d640f13fff807872",
		},
		{
			name: "collection/dot",
			build: func() (*ann.Index, error) {
				return ann.BuildVectors(names, vecs, ann.Options{M: 12, EfConstruction: 100, Seed: 5, Metric: ann.MetricDot})
			},
			encode: "0504db6eca600b8a9cc9487e9cb95e9794ce3c92528a5acf514ac7937fb6765f",
			search: "610bde04d5439bd62cd9979d85f2e3ecfac05c3acf132d4a3e5e6444c309f8b4",
		},
		{
			name: "duplicates/dot",
			build: func() (*ann.Index, error) {
				return ann.BuildVectors(dupNames, dupVecs, ann.Options{M: 8, EfConstruction: 60, Seed: 2, Metric: ann.MetricDot})
			},
			encode: "28c047dd849c0ecf43460057a6b1f4ca1dd6f10934a166ae510b3eca564dd342",
			search: "f0f67b03e186304054cf6a4b2f080dcea72be02ca84b5791d2ce31e262f2d5d6",
		},
		{
			name: "embedding/cosine",
			build: func() (*ann.Index, error) {
				return ann.Build(benchmarkEmbedding(t), ann.Options{Seed: 1})
			},
			encode: "565fcdca447a197f92a7868c39b18322b58acd743c108f4d764d4db0a1e67fe8",
			search: "c6fb79f4237d147962cdca336cdc276eaa3a13af8a74ea2a63c95a65e411c8ef",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ix, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(ix.Encode())
			if got := hex.EncodeToString(sum[:]); got != tc.encode {
				t.Errorf("Encode() SHA-256 = %s, pinned %s", got, tc.encode)
			}
			if got := searchDigest(t, ix); got != tc.search {
				t.Errorf("search results SHA-256 = %s, pinned %s", got, tc.search)
			}
		})
	}
}

// searchDigest hashes the answers of every search path over a fixed
// handful of queries: SearchName, SearchVector, BruteForceName and
// BruteForceVector on the float index, then SearchName and
// SearchVector after Quantize. Scores are hashed with %b, so the digest
// sees every bit of them. It quantizes ix.
func searchDigest(t *testing.T, ix *ann.Index) string {
	t.Helper()
	h := sha256.New()
	names := ix.Names()
	rng := rand.New(rand.NewSource(17))
	const k, queries = 10, 6
	qnames := make([]string, queries)
	qvecs := make([][]float64, queries)
	for i := range qnames {
		qnames[i] = names[(i*7919)%len(names)]
		qvecs[i] = make([]float64, ix.Dim())
		for j := range qvecs[i] {
			qvecs[i][j] = rng.NormFloat64()
		}
	}
	for i := range qnames {
		rs, err := ix.SearchName(qnames[i], k, 0)
		hashResults(t, h, "SearchName "+qnames[i], rs, err)
		rs, err = ix.SearchVector(qvecs[i], k, 40)
		hashResults(t, h, fmt.Sprint("SearchVector ", i), rs, err)
		rs, err = ix.BruteForceName(qnames[i], k)
		hashResults(t, h, "BruteForceName "+qnames[i], rs, err)
		rs, err = ix.BruteForceVector(qvecs[i], k)
		hashResults(t, h, fmt.Sprint("BruteForceVector ", i), rs, err)
	}
	if err := ix.Quantize(nil); err != nil {
		t.Fatal(err)
	}
	for i := range qnames {
		rs, err := ix.SearchName(qnames[i], k, 0)
		hashResults(t, h, "int8 SearchName "+qnames[i], rs, err)
		rs, err = ix.SearchVector(qvecs[i], k, 40)
		hashResults(t, h, fmt.Sprint("int8 SearchVector ", i), rs, err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashResults(t *testing.T, h hash.Hash, label string, rs []ann.Result, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	fmt.Fprintln(h, label)
	for _, r := range rs {
		fmt.Fprintf(h, "%d %s %b\n", r.ID, r.Name, r.Score)
	}
}

// fmaA and fmaC are variables so the compiler cannot fold the probe.
var fmaA, fmaC = 1 + 0x1p-30, -(1 + 0x1p-29)

// fusesMulAdd reports whether this build fuses s += x*y, the kernels'
// accumulation, into one rounding: fmaA*fmaA rounds to -fmaC, so the
// sum is 0 only when the product is rounded first.
func fusesMulAdd() bool {
	s := fmaC
	s += fmaA * fmaA
	return s != 0
}
