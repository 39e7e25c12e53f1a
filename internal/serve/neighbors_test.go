package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/ann"
	"repro/internal/core"
)

// fixtureIndex builds one ANN index over the serve fixture's embedding
// per test binary.
var (
	fixtureIxOnce sync.Once
	fixtureIx     *ann.Index
	fixtureIxErr  error
)

func fixtureIndex(t testing.TB) *ann.Index {
	t.Helper()
	_, loaded, _ := fixture(t)
	fixtureIxOnce.Do(func() {
		fixtureIx, fixtureIxErr = ann.Build(loaded.Embedding, ann.Options{Seed: 7})
	})
	if fixtureIxErr != nil {
		t.Fatal(fixtureIxErr)
	}
	return fixtureIx
}

// getNeighbors runs one GET /v1/neighbors query and decodes the result.
func getNeighbors(t *testing.T, url, token string, k int) (neighborsResponse, int) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/neighbors?token=%s&k=%d", url, token, k))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out neighborsResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return out, resp.StatusCode
}

// TestNeighborsEndToEnd drives GET and POST /v1/neighbors against a
// real index and checks the responses against direct index searches —
// the HTTP layer must add nothing and lose nothing.
func TestNeighborsEndToEnd(t *testing.T) {
	_, loaded, _ := fixture(t)
	ix := fixtureIndex(t)
	srv := New(loaded, Config{Index: ix})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	token := ix.Names()[0]
	want, err := ix.SearchName(token, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("fixture index returned no neighbors; the test is vacuous")
	}

	out, status := getNeighbors(t, ts.URL, token, 5)
	if status != http.StatusOK {
		t.Fatalf("GET status %d", status)
	}
	if out.CacheHit {
		t.Error("first query reported a cache hit")
	}
	if out.Dim != ix.Dim() || len(out.Neighbors) != len(want) {
		t.Fatalf("got %d neighbors at dim %d, want %d at %d", len(out.Neighbors), out.Dim, len(want), ix.Dim())
	}
	for i, n := range out.Neighbors {
		if n.Token != want[i].Name || n.Score != want[i].Score {
			t.Errorf("neighbor %d = %s/%g, want %s/%g", i, n.Token, n.Score, want[i].Name, want[i].Score)
		}
	}

	// The identical query is a cache hit with the identical answer.
	again, _ := getNeighbors(t, ts.URL, token, 5)
	if !again.CacheHit {
		t.Error("repeated query missed the neighbor cache")
	}
	if len(again.Neighbors) != len(out.Neighbors) {
		t.Fatal("cached answer differs from computed answer")
	}
	snap := srv.metrics
	if hits := int(snap.annCacheHits.Value()); hits != 1 {
		t.Errorf("ann cache hits = %d, want 1", hits)
	}

	// POST by token matches GET.
	resp, err := http.Post(ts.URL+"/v1/neighbors", "application/json",
		strings.NewReader(mustJSON(map[string]any{"token": token, "k": 5})))
	if err != nil {
		t.Fatal(err)
	}
	var posted neighborsResponse
	if err := json.NewDecoder(resp.Body).Decode(&posted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(posted.Neighbors) != len(want) {
		t.Fatalf("POST by token: status %d, %d neighbors", resp.StatusCode, len(posted.Neighbors))
	}

	// POST by raw vector: searching with an indexed entity's own vector
	// must return that entity as the top hit.
	vec, ok := loaded.Embedding.Vector(token)
	if !ok {
		t.Fatalf("fixture embedding lost token %q", token)
	}
	resp, err = http.Post(ts.URL+"/v1/neighbors", "application/json",
		strings.NewReader(mustJSON(map[string]any{"vector": vec, "k": 3})))
	if err != nil {
		t.Fatal(err)
	}
	var byVec neighborsResponse
	if err := json.NewDecoder(resp.Body).Decode(&byVec); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(byVec.Neighbors) == 0 {
		t.Fatalf("POST by vector: status %d, %d neighbors", resp.StatusCode, len(byVec.Neighbors))
	}
	if byVec.Neighbors[0].Token != token {
		t.Errorf("self-vector query returned %q first, want %q", byVec.Neighbors[0].Token, token)
	}
}

// TestNeighborsValidation covers every rejection path of the endpoint.
func TestNeighborsValidation(t *testing.T) {
	_, loaded, _ := fixture(t)
	ix := fixtureIndex(t)
	srv := New(loaded, Config{Index: ix})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/neighbors", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	get := func(query string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/neighbors" + query)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	token := ix.Names()[0]
	for name, tc := range map[string]struct {
		status int
		do     func() int
	}{
		"unknown token 404":   {404, func() int { return get("?token=no-such-entity&k=3") }},
		"missing token":       {400, func() int { return get("?k=3") }},
		"non-numeric k":       {400, func() int { return get("?token=" + token + "&k=banana") }},
		"non-numeric ef":      {400, func() int { return get("?token=" + token + "&ef=x") }},
		"k zero":              {400, func() int { return get("?token=" + token + "&k=0") }},
		"k over cap":          {400, func() int { return get(fmt.Sprintf("?token=%s&k=%d", token, maxNeighborsK+1)) }},
		"negative ef":         {400, func() int { return get("?token=" + token + "&ef=-1") }},
		"malformed body":      {400, func() int { return post("{nope") }},
		"unknown field":       {400, func() int { return post(`{"tokn":"x"}`) }},
		"token and vector":    {400, func() int { return post(`{"token":"a","vector":[1,2]}`) }},
		"neither":             {400, func() int { return post(`{"k":3}`) }},
		"wrong vector dim":    {400, func() int { return post(`{"vector":[1,2,3]}`) }},
		"unknown token POST":  {404, func() int { return post(`{"token":"no-such-entity"}`) }},
		"happy GET stays 200": {200, func() int { return get("?token=" + token) }},
	} {
		if got := tc.do(); got != tc.status {
			t.Errorf("%s: status %d, want %d", name, got, tc.status)
		}
	}
}

// TestNeighborsWithoutIndex: a server configured without an index
// answers 503 on both methods, and healthz reports zero ANN vectors.
func TestNeighborsWithoutIndex(t *testing.T) {
	_, loaded, _ := fixture(t)
	srv := New(loaded, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if _, status := getNeighbors(t, ts.URL, "anything", 3); status != http.StatusServiceUnavailable {
		t.Errorf("GET without index: status %d, want 503", status)
	}
	resp, err := http.Post(ts.URL+"/v1/neighbors", "application/json", strings.NewReader(`{"token":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST without index: status %d, want 503", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz["annVectors"] != float64(0) {
		t.Errorf("healthz annVectors = %v, want 0", hz["annVectors"])
	}
}

// TestNeighborsPinnedAcrossReload is the zero-downtime contract for the
// ANN path: a neighbor query in flight when a reload swaps bundle and
// index finishes against the index it started with, and the next query
// sees the new index.
func TestNeighborsPinnedAcrossReload(t *testing.T) {
	_, loaded, _ := fixture(t)
	alt := altFixture(t)
	oldIx := fixtureIndex(t)
	newIx, err := ann.Build(alt.Embedding, ann.Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(loaded, Config{
		RequestTimeout: -1,
		Index:          oldIx,
		Loader:         func() (*core.Result, error) { return alt, nil },
		IndexLoader:    func() (*ann.Index, error) { return newIx, nil },
	})
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.testHookNeighbors = func() {
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	token := oldIx.Names()[0]
	wantOld, err := oldIx.SearchName(token, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		out    neighborsResponse
		status int
	}
	got := make(chan answer, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("%s/v1/neighbors?token=%s&k=5", ts.URL, token))
		if err != nil {
			got <- answer{status: -1}
			return
		}
		defer resp.Body.Close()
		var out neighborsResponse
		if resp.StatusCode == http.StatusOK {
			json.NewDecoder(resp.Body).Decode(&out)
		}
		got <- answer{out: out, status: resp.StatusCode}
	}()
	<-entered // query holds the pre-reload store and its index

	if err := srv.Reload(); err != nil {
		t.Fatalf("reload with a neighbor query in flight: %v", err)
	}
	srv.testHookNeighbors = nil
	close(release)

	ans := <-got
	if ans.status != http.StatusOK {
		t.Fatalf("in-flight neighbor query failed across the reload: status %d", ans.status)
	}
	for i, n := range ans.out.Neighbors {
		if n.Token != wantOld[i].Name || n.Score != wantOld[i].Score {
			t.Fatalf("in-flight query served mixed or new-index results at %d: %s/%g", i, n.Token, n.Score)
		}
	}

	// The next query runs on the reloaded index.
	wantNew, err := newIx.SearchName(token, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	after, status := getNeighbors(t, ts.URL, token, 5)
	if status != http.StatusOK {
		t.Fatalf("post-reload query: status %d", status)
	}
	same := len(after.Neighbors) == len(wantNew)
	for i := 0; same && i < len(wantNew); i++ {
		same = after.Neighbors[i].Token == wantNew[i].Name && after.Neighbors[i].Score == wantNew[i].Score
	}
	if !same {
		t.Fatal("post-reload query does not match the new index")
	}
	if srv.curStore().index != newIx {
		t.Error("current store does not hold the reloaded index")
	}
}

// TestReloadRejectsBadIndex: a failing or mismatched candidate index
// rejects the whole reload — bundle included — and the old pair keeps
// serving.
func TestReloadRejectsBadIndex(t *testing.T) {
	_, loaded, _ := fixture(t)
	alt := altFixture(t)
	ix := fixtureIndex(t)

	t.Run("loader error", func(t *testing.T) {
		srv := New(loaded, Config{
			Index:       ix,
			Loader:      func() (*core.Result, error) { return alt, nil },
			IndexLoader: func() (*ann.Index, error) { return nil, fmt.Errorf("index disk on fire") },
		})
		if err := srv.Reload(); err == nil || !strings.Contains(err.Error(), "index disk on fire") {
			t.Fatalf("reload error = %v, want the index loader's failure", err)
		}
		st := srv.curStore()
		if st.gen != 1 || st.index != ix {
			t.Errorf("failed index reload advanced the store: gen %d", st.gen)
		}
	})

	t.Run("dim mismatch", func(t *testing.T) {
		badIx, err := ann.BuildVectors([]string{"a", "b", "c"},
			[][]float64{{1, 2}, {3, 4}, {5, 6}}, ann.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		srv := New(loaded, Config{
			Index:       ix,
			Loader:      func() (*core.Result, error) { return alt, nil },
			IndexLoader: func() (*ann.Index, error) { return badIx, nil },
		})
		if err := srv.Reload(); err == nil || !strings.Contains(err.Error(), "dim") {
			t.Fatalf("reload error = %v, want a dim-mismatch rejection", err)
		}
		if st := srv.curStore(); st.gen != 1 || st.index != ix {
			t.Error("rejected index reload swapped the store anyway")
		}
	})

	t.Run("foreign names", func(t *testing.T) {
		// Right dimension, wrong vocabulary: an index built from some
		// other embedding must not pass validation.
		dim := loaded.Embedding.Dim
		vecs := make([][]float64, 3)
		names := make([]string, 3)
		for i := range vecs {
			v := make([]float64, dim)
			v[i%dim] = 1
			vecs[i] = v
			names[i] = fmt.Sprintf("not-an-entity-%d", i)
		}
		foreign, err := ann.BuildVectors(names, vecs, ann.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		srv := New(loaded, Config{
			Index:       ix,
			Loader:      func() (*core.Result, error) { return alt, nil },
			IndexLoader: func() (*ann.Index, error) { return foreign, nil },
		})
		if err := srv.Reload(); err == nil || !strings.Contains(err.Error(), "not in the candidate embedding") {
			t.Fatalf("reload error = %v, want a foreign-name rejection", err)
		}
	})

	t.Run("no index loader carries index forward", func(t *testing.T) {
		srv := New(loaded, Config{
			Index:  ix,
			Loader: func() (*core.Result, error) { return loaded, nil },
		})
		if err := srv.Reload(); err != nil {
			t.Fatal(err)
		}
		if st := srv.curStore(); st.gen != 2 || st.index != ix {
			t.Errorf("reload without IndexLoader: gen %d, index carried = %v", st.gen, st.index == ix)
		}
	})
}

// BenchmarkANNSearch compares one /v1/neighbors-path search through the
// HNSW index, float and int8, against the exact scan the server falls
// back to when the ANN breaker is open, on the serving fixture's
// embedding.
func BenchmarkANNSearch(b *testing.B) {
	_, loaded, _ := fixture(b)
	ix, err := ann.Build(loaded.Embedding, ann.Options{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	token := ix.Names()[0]
	query, _ := loaded.Embedding.Vector(token)

	b.Run("hnsw", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ix.SearchVector(query, 10, 0); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("hnsw-int8", func(b *testing.B) {
		qix, err := ann.Build(loaded.Embedding, ann.Options{Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		if err := qix.Quantize(nil); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := qix.SearchVector(query, 10, 0); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("brute-force", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ix.BruteForceVector(query, 10); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ann.Build(loaded.Embedding, ann.Options{Seed: 7}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
