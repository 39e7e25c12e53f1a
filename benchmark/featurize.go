package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/serve"
)

const (
	// multiRowShare of featurize requests carry multiRows rows; the
	// rest carry one.
	multiRowShare = 0.2
	multiRows     = 16
	// unseenShare of rows carry one of unseenKinds values the build
	// never saw, which also makes them row-cache misses.
	unseenShare = 0.03
	unseenKinds = 256
	// minReloads is the number of reloads a window must hold. It runs
	// one in the middle of each throughput sub-window,
	// setupRounds*slicesPerPiece in all.
	minReloads = 20
	// idleReloads is the number of back-to-back reloads after the
	// window that reload_ms is the median of.
	idleReloads = 101
	// checkRows rows are compared against offline featurization.
	checkRows = 64
	// probeRequests is the sample of the request pool the per-layer
	// probes replay.
	probeRequests = 2000
)

type featurizeBody struct {
	Table string           `json:"table"`
	Rows  []map[string]any `json:"rows"`
}

// featurizeTraffic is the generated request pool and the rows it
// carries.
type featurizeTraffic struct {
	qs []query
	// rows holds every row of every request, in pool order.
	rows *dataset.Table
}

// featurizeQueries draws request rows from the base table with Zipf
// skew; multiRowShare of requests carry multiRows rows, and
// unseenShare of rows get a value in one column that the build never
// saw.
func featurizeQueries(seed int64, base *dataset.Table) (*featurizeTraffic, error) {
	rng := rand.New(rand.NewSource(seed + 1))
	sizes := make([]int, poolSize)
	total := 0
	for i := range sizes {
		sizes[i] = 1
		if rng.Float64() < multiRowShare {
			sizes[i] = multiRows
		}
		total += sizes[i]
	}
	draws := zipfDraws(seed+2, base.NumRows(), total)
	cols := base.ColumnNames()
	rows := &dataset.Table{Name: base.Name}
	for _, c := range cols {
		rows.Columns = append(rows.Columns, &dataset.Column{Name: c, Values: make([]dataset.Value, total)})
	}
	tr := &featurizeTraffic{qs: make([]query, poolSize), rows: rows}
	next := 0
	for i, n := range sizes {
		body := featurizeBody{Table: base.Name, Rows: make([]map[string]any, n)}
		for k := range body.Rows {
			src := draws[next]
			obj := make(map[string]any, len(cols))
			unseenCol := -1
			if rng.Float64() < unseenShare {
				unseenCol = 1 + rng.Intn(len(cols)-1)
			}
			for j, c := range base.Columns {
				v := c.Values[src]
				if j == unseenCol {
					v = dataset.String("unseen_" + strconv.Itoa(rng.Intn(unseenKinds)))
				}
				rows.Columns[j].Values[next] = v
				jv, err := jsonValue(v)
				if err != nil {
					return nil, fmt.Errorf("column %s: %w", c.Name, err)
				}
				obj[c.Name] = jv
			}
			body.Rows[k] = obj
			next++
		}
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		tr.qs[i] = query{method: http.MethodPost, target: "/v1/featurize", body: b, rows: n}
	}
	return tr, nil
}

var cacheHitsKey = []byte(`"cacheHits":`)

// readFeaturize reads the row-cache hits from a featurize response.
func readFeaturize(q *query, body []byte) reply {
	hits := 0
	if i := bytes.Index(body, cacheHitsKey); i >= 0 {
		for _, c := range body[i+len(cacheHitsKey):] {
			if c < '0' || c > '9' {
				break
			}
			hits = hits*10 + int(c-'0')
		}
	}
	return reply{hits: hits, units: q.rows, envelope: q.rows == 1 && hits == 1}
}

// reloader hot-reloads the server's bundle from dir on a fixed period
// and times each Reload and, as the server's Loader, each bundle load.
type reloader struct {
	dir string
	tr  *tracer
	l   *spanLog
	// rid and parent identify the reload in progress, for the load
	// span; both are only touched by the goroutine running run.
	rid, parent  int64
	reload, load []time.Duration
	errs         []error
}

func (r *reloader) loader() (res *core.Result, err error) {
	d, _ := r.l.time("core.bundle_load", r.parent, r.rid, func() error {
		res, err = core.LoadBundle(r.dir)
		return err
	})
	r.load = append(r.load, d)
	return res, err
}

// run reloads srv every period, starting half a period in, until stop
// is closed.
func (r *reloader) run(srv *serve.Server, period time.Duration, stop <-chan struct{}) {
	select {
	case <-stop:
		return
	case <-time.After(period / 2):
		r.once(srv)
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			r.once(srv)
		}
	}
}

func (r *reloader) once(srv *serve.Server) {
	r.rid = r.tr.newReq()
	r.parent = r.l.begin("serve.reload", 0, r.rid)
	t0 := time.Now()
	err := srv.Reload()
	d := time.Since(t0)
	r.l.end(r.parent)
	if err != nil {
		r.errs = append(r.errs, err)
		return
	}
	r.reload = append(r.reload, d)
}

// runFeaturize serves POST /v1/featurize in process while the bundle
// is hot-reloaded on a fixed period; every reload empties the row
// cache. Each piece of the window serves a fresh server over that
// round's bundle.
func runFeaturize(e *env) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	rl := &reloader{tr: e.tr, l: e.tr.log()}
	var traffic *featurizeTraffic
	sv, err := serveRounds(e, o, false, func(f *servingFixture) (*session, error) {
		if traffic == nil {
			var err error
			if traffic, err = featurizeQueries(e.seed, f.base); err != nil {
				return nil, err
			}
		}
		rl.dir = f.dir
		srv := newServer(f.loaded, nil, rl.loader)
		return &session{
			srv: srv, h: srv.Handler(), qs: traffic.qs, read: readFeaturize,
			beside: func(piece time.Duration, stop <-chan struct{}) {
				rl.run(srv, piece/slicesPerPiece, stop)
			},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	f, srv, h, run := sv.f, sv.s.srv, sv.s.h, sv.run
	if err := latencyMetrics(e, o, run); err != nil {
		return nil, err
	}
	o.check(len(rl.reload) >= minReloads, "%d reloads in the window, want at least %d", len(rl.reload), minReloads)
	e.extra["window_reloads"] = len(rl.reload)
	e.extra["window_reload_ms"] = medianDur(rl.reload, time.Millisecond)

	// Under load a reload waits for a processor and for the collector
	// behind the clients: in one run its time ranged from 8 to 60 ms,
	// and the median of 21 such reloads moved by a third between runs
	// of one seed. reload_ms is therefore timed on the idle server, where
	// it is the cost of the load and the swap alone. The last of these
	// reloads empties the row cache, and replaying the head of the pool
	// then leaves every run with this seed in the same state for the
	// checks and the live-heap measurement.
	inWindow := len(rl.reload)
	for i := 0; i < idleReloads; i++ {
		rl.once(srv)
	}
	o.attempted += len(rl.reload) + len(rl.errs)
	o.failed += len(rl.errs)
	for _, err := range rl.errs {
		o.check(false, "reload: %v", err)
	}
	o.e2e[reloadMS.name] = medianDur(rl.reload[inWindow:], time.Millisecond)
	if _, err := replayHits(o, h, traffic.qs[:probeRequests], readFeaturize); err != nil {
		return nil, err
	}
	if err := checkFeaturize(o, h, f.built, traffic); err != nil {
		return nil, err
	}
	if o.e2e[recallAt10.name], err = sampleRecall(e, o, f.loaded.Embedding); err != nil {
		return nil, err
	}

	// Only the server stays reachable for the live-heap measurement.
	f, traffic, run, sv = nil, nil, nil, nil
	o.e2e[liveHeapMB.name] = liveHeapMiB()
	runtime.KeepAlive(srv)
	return o, servingAccuracy(e, o)
}

// checkFeaturize sends the first checkRows rows of the pool one per
// request, and again as one multi-row request, and checks that every
// served float is == to offline Featurize of the same rows with the
// in-process build.
func checkFeaturize(o *outcome, h http.Handler, built *core.Result, tr *featurizeTraffic) error {
	idx := make([]int, checkRows)
	for i := range idx {
		idx[i] = i
	}
	sample := tr.rows.SelectRows(idx)
	want, err := built.Featurize(sample, sample.Name, nil, func(int) int { return -1 })
	if err != nil {
		return fmt.Errorf("offline featurize: %w", err)
	}
	rowObj := func(i int) map[string]any {
		obj := map[string]any{}
		for _, c := range sample.Columns {
			obj[c.Name], _ = jsonValue(c.Values[i])
		}
		return obj
	}
	send := func(rows []map[string]any) ([][]float64, error) {
		b, err := json.Marshal(featurizeBody{Table: sample.Name, Rows: rows})
		if err != nil {
			return nil, err
		}
		body, err := serveOnce(h, &query{method: http.MethodPost, target: "/v1/featurize", body: b})
		if err != nil {
			return nil, err
		}
		var resp struct {
			Features [][]float64 `json:"features"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, err
		}
		return resp.Features, nil
	}
	var all []map[string]any
	for i := 0; i < checkRows; i++ {
		got, err := send([]map[string]any{rowObj(i)})
		o.attempted++
		if err != nil {
			o.failed++
			o.check(false, "featurize check row %d: %v", i, err)
			continue
		}
		o.check(sameMatrix(got, want[i:i+1]), "served features of row %d differ from offline Featurize", i)
		all = append(all, rowObj(i))
	}
	got, err := send(all[:multiRows])
	o.attempted++
	if err != nil {
		o.failed++
		o.check(false, "featurize check of %d rows: %v", multiRows, err)
		return nil
	}
	o.check(sameMatrix(got, want[:multiRows]), "served features of a %d-row request differ from offline Featurize", multiRows)
	return nil
}

// featurizeRowProbe times Result.FeaturizeRow directly on the rows of
// the first one-row requests of the pool and returns the median in
// microseconds.
func featurizeRowProbe(e *env, res *core.Result, tr *featurizeTraffic) (float64, error) {
	l := e.tr.log()
	mode := res.Config.Featurization
	var ds []time.Duration
	row := 0
	for _, q := range tr.qs {
		if len(ds) == probeRequests {
			break
		}
		if q.rows != 1 {
			row += q.rows
			continue
		}
		one := tr.rows.SelectRows([]int{row})
		row++
		d, err := l.time("core.featurize_row", 0, e.tr.newReq(), func() error {
			_, err := res.FeaturizeRow(one, one.Name, nil, 0, -1, mode)
			return err
		})
		ds = append(ds, d)
		if err != nil {
			return 0, fmt.Errorf("FeaturizeRow: %w", err)
		}
	}
	return medianDur(ds, time.Microsecond), nil
}
