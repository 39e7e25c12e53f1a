package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"time"

	"repro/internal/ann"
)

const (
	// tokenShare of neighbors queries are GETs by token; the rest POST
	// a perturbed embedding vector, which is never cached.
	tokenShare = 0.75
	// perturb is the noise added to each coordinate of a raw-vector
	// query, relative to the vector's RMS coordinate.
	perturb    = 0.05
	neighborsK = 10
	// recallTokens and recallVectors size the fixed query sample
	// checked against the exact scan.
	recallTokens  = 150
	recallVectors = 50
)

type neighborsBody struct {
	Vector []float64 `json:"vector"`
	K      int       `json:"k"`
}

// neighborsTraffic is the generated request pool.
type neighborsTraffic struct {
	qs []query
	// tokens and vectors are the queries behind qs, in pool order;
	// tokens[i] is "" for a vector query.
	tokens  []string
	vectors [][]float64
}

// neighborsQueries draws tokens uniformly from the index vocabulary and
// builds raw-vector queries by perturbing randomly chosen vectors.
func neighborsQueries(seed int64, ix *ann.Index, vector func(string) []float64) (*neighborsTraffic, error) {
	rng := rand.New(rand.NewSource(seed + 3))
	names := ix.Names()
	picks := uniformDraws(seed+4, len(names), poolSize)
	tr := &neighborsTraffic{qs: make([]query, poolSize), tokens: make([]string, poolSize), vectors: make([][]float64, poolSize)}
	for i, p := range picks {
		if rng.Float64() < tokenShare {
			tr.tokens[i] = names[p]
			tr.qs[i] = query{method: http.MethodGet, target: tokenTarget(names[p])}
			continue
		}
		v := append([]float64(nil), vector(names[p])...)
		var ss float64
		for _, x := range v {
			ss += x * x
		}
		scale := perturb * math.Sqrt(ss/float64(len(v)))
		for j := range v {
			v[j] += scale * rng.NormFloat64()
		}
		b, err := json.Marshal(neighborsBody{Vector: v, K: neighborsK})
		if err != nil {
			return nil, err
		}
		tr.vectors[i] = v
		tr.qs[i] = query{method: http.MethodPost, target: "/v1/neighbors", body: b}
	}
	return tr, nil
}

func tokenTarget(token string) string {
	return fmt.Sprintf("/v1/neighbors?k=%d&token=%s", neighborsK, url.QueryEscape(token))
}

var (
	cacheHitTrue = []byte(`"cacheHit":true`)
	degradedTrue = []byte(`"degraded":true`)
)

// readNeighbors reads the ANN cache outcome of a token query and the
// degraded flag of any query.
func readNeighbors(q *query, body []byte) reply {
	r := reply{degraded: bytes.Contains(body, degradedTrue)}
	if q.method == http.MethodGet {
		r.units = 1
		if bytes.Contains(body, cacheHitTrue) {
			r.hits = 1
			r.envelope = true
		}
	}
	return r
}

// runNeighbors serves GET and POST /v1/neighbors in process over an
// HNSW index of the whole embedding. Each piece of the window serves a
// fresh server over that round's index.
func runNeighbors(e *env) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	rl := &reloader{tr: e.tr, l: e.tr.log()}
	var traffic *neighborsTraffic
	sv, err := serveRounds(e, o, true, func(f *servingFixture) (*session, error) {
		if traffic == nil {
			var err error
			traffic, err = neighborsQueries(e.seed, f.index, func(name string) []float64 {
				v, _ := f.loaded.Embedding.Vector(name)
				return v
			})
			if err != nil {
				return nil, err
			}
		}
		rl.dir = f.dir
		srv := newServer(f.loaded, f.index, rl.loader)
		return &session{srv: srv, h: srv.Handler(), qs: traffic.qs, read: readNeighbors}, nil
	})
	if err != nil {
		return nil, err
	}
	ix, srv, h, run := sv.f.index, sv.s.srv, sv.s.h, sv.run
	e.extra["index_vectors"] = ix.Len()
	if err := latencyMetrics(e, o, run); err != nil {
		return nil, err
	}
	if o.e2e[recallAt10.name], err = checkNeighbors(e, o, h, ix, traffic); err != nil {
		return nil, err
	}

	// reload_ms: idle hot reloads of the bundle; the index carries
	// forward. Each reload empties the ANN cache, and replaying the
	// head of the pool after the last leaves every run with this seed
	// in the same state for the live-heap measurement.
	for i := 0; i < idleReloads; i++ {
		rl.once(srv)
	}
	o.attempted += len(rl.reload) + len(rl.errs)
	o.failed += len(rl.errs)
	for _, err := range rl.errs {
		o.check(false, "reload: %v", err)
	}
	o.e2e[reloadMS.name] = medianDur(rl.reload, time.Millisecond)
	if _, err := replayHits(o, h, traffic.qs[:probeRequests], readNeighbors); err != nil {
		return nil, err
	}

	// Only the server stays reachable for the live-heap measurement.
	ix, traffic, run, sv = nil, nil, nil, nil
	o.e2e[liveHeapMB.name] = liveHeapMiB()
	runtime.KeepAlive(srv)
	return o, servingAccuracy(e, o)
}

// checkNeighbors sends a fixed sample of queries from the start of the
// pool and checks each served answer against a direct search of the
// same index: token answers must equal SearchName and vector answers
// SearchVector, hit for hit. It returns the served answers' recall@10
// against the exact scans BruteForceName and BruteForceVector.
func checkNeighbors(e *env, o *outcome, h http.Handler, ix *ann.Index, tr *neighborsTraffic) (float64, error) {
	var recall float64
	n := 0
	err := recallSample(tr, func(i int) error {
		tok := tr.tokens[i]
		var direct, exact []ann.Result
		var err error
		if tok != "" {
			if direct, err = ix.SearchName(tok, neighborsK, 0); err == nil {
				exact, err = ix.BruteForceName(tok, neighborsK)
			}
		} else if direct, err = ix.SearchVector(tr.vectors[i], neighborsK, 0); err == nil {
			exact, err = ix.BruteForceVector(tr.vectors[i], neighborsK)
		}
		if err != nil {
			return fmt.Errorf("direct search: %w", err)
		}
		o.attempted++
		body, err := serveOnce(h, &tr.qs[i])
		if err != nil {
			o.failed++
			o.check(false, "neighbors check: %v", err)
			return nil
		}
		var resp struct {
			Neighbors []struct {
				Token string  `json:"token"`
				Score float64 `json:"score"`
			} `json:"neighbors"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("decode neighbors response: %w", err)
		}
		same := len(resp.Neighbors) == len(direct)
		for j := 0; same && j < len(direct); j++ {
			same = resp.Neighbors[j].Token == direct[j].Name && resp.Neighbors[j].Score == direct[j].Score
		}
		o.check(same, "served neighbors of query %d differ from a direct index search", i)
		got := make([]string, len(resp.Neighbors))
		for j, nb := range resp.Neighbors {
			got[j] = nb.Token
		}
		recall += overlap(got, exact)
		n++
		return nil
	})
	if err != nil {
		return 0, err
	}
	e.extra["recall_queries"] = n
	return recall / float64(n), nil
}

// annProbes times the index's search paths directly: SearchName and
// SearchVector on the pool's queries, and the exact BruteForceName
// scan on a smaller sample.
func annProbes(e *env, o *outcome, ix *ann.Index, tr *neighborsTraffic) error {
	l := e.tr.log()
	var name, vector, exact []time.Duration
	probe := func(span string, f func() error) (time.Duration, error) {
		return l.time(span, 0, e.tr.newReq(), f)
	}
	for i := range tr.qs {
		if len(name) == probeRequests && len(vector) >= probeRequests/4 {
			break
		}
		tok := tr.tokens[i]
		var d time.Duration
		var err error
		switch {
		case tok != "" && len(name) < probeRequests:
			d, err = probe("ann.search_name", func() error { _, err := ix.SearchName(tok, neighborsK, 0); return err })
			name = append(name, d)
			if err == nil && len(exact) < recallTokens {
				d, err = probe("ann.exact", func() error { _, err := ix.BruteForceName(tok, neighborsK); return err })
				exact = append(exact, d)
			}
		case tok == "" && len(vector) < probeRequests/4:
			d, err = probe("ann.search_vector", func() error { _, err := ix.SearchVector(tr.vectors[i], neighborsK, 0); return err })
			vector = append(vector, d)
		}
		if err != nil {
			return fmt.Errorf("ANN probe: %w", err)
		}
	}
	o.layers["ann.search_name_us.p50"] = medianDur(name, time.Microsecond)
	o.layers["ann.search_vector_us.p50"] = medianDur(vector, time.Microsecond)
	o.layers["ann.exact_us.p50"] = medianDur(exact, time.Microsecond)
	return nil
}
