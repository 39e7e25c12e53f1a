package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/ann"
	"repro/internal/core"
)

// censusReloads is the number of hot reloads the census times.
const censusReloads = 21

// layerCensus ends every traced run. The contract of the benchmark
// has every traced run report every per-layer metric, so the census
// times each layer's public functions directly on this seed's data,
// the same way in every workload: the pipeline layers and stages
// (buildLayers), bundle save and load, hot reload, the featurize
// envelope, FeaturizeRow and the row cache, and the HNSW index. It
// builds what it needs from the reference classification build: a
// bundle of its result, an index over that bundle's embedding, and a
// server over both, configured as levad ships.
func layerCensus(e *env, o *outcome, task *core.Task, ref *core.SupervisedData) error {
	if err := buildLayers(e, o, *task, ref); err != nil {
		return err
	}
	fmt.Fprintf(e.log, "census: bundle, index and server\n")
	l := e.tr.log()
	dir := filepath.Join(e.dir, "census-bundle")
	var save []time.Duration
	for i := 0; i < layerRounds; i++ {
		d, err := l.time("core.bundle_save", 0, e.tr.newReq(), func() error { return ref.Result.SaveBundle(dir) })
		if err != nil {
			return fmt.Errorf("save bundle: %w", err)
		}
		save = append(save, d)
	}
	o.layers["core.bundle_save_ms"] = medianDur(save, time.Millisecond)
	loaded, err := core.LoadBundle(dir)
	if err != nil {
		return fmt.Errorf("load bundle: %w", err)
	}
	var ix *ann.Index
	d, err := l.time("ann.build", 0, e.tr.newReq(), func() (err error) {
		ix, err = ann.Build(loaded.Embedding, ann.Options{Seed: e.seed})
		return err
	})
	if err != nil {
		return fmt.Errorf("build ANN index: %w", err)
	}
	o.layers["ann.build_s"] = d.Seconds()

	rl := &reloader{dir: dir, tr: e.tr, l: l}
	srv := newServer(loaded, ix, rl.loader)
	h := srv.Handler()
	for i := 0; i < censusReloads; i++ {
		rl.once(srv)
	}
	o.attempted += len(rl.reload) + len(rl.errs)
	o.failed += len(rl.errs)
	if len(rl.errs) > 0 {
		return fmt.Errorf("census reload: %w", rl.errs[0])
	}
	swap := make([]time.Duration, len(rl.reload))
	for i := range swap {
		swap[i] = rl.reload[i] - rl.load[i]
	}
	o.layers["core.bundle_load_ms"] = medianDur(rl.load, time.Millisecond)
	o.layers["serve.reload.swap_ms"] = medianDur(swap, time.Millisecond)

	fmt.Fprintf(e.log, "census: featurize probes\n")
	base := task.DB.Table(task.BaseTable).DropColumns(task.Target)
	ft, err := featurizeQueries(e.seed, base)
	if err != nil {
		return err
	}
	// Each reload empties the row cache, so both replays start cold.
	rl.once(srv)
	allocs, bytes, err := allocsPerRequest(h, ft.qs[:probeRequests])
	if err != nil {
		return err
	}
	o.layers["serve.allocs_per_req"] = allocs
	o.layers["serve.bytes_per_req"] = bytes
	rl.once(srv)
	if o.layers["serve.row_cache.hit_ratio"], err = replayHits(o, h, ft.qs, readFeaturize); err != nil {
		return err
	}
	if o.layers["serve.envelope_us.p50"], err = envelopeProbe(e, o, h, ft.qs); err != nil {
		return err
	}
	if o.layers["core.featurize_row_us.p50"], err = featurizeRowProbe(e, loaded, ft); err != nil {
		return err
	}

	fmt.Fprintf(e.log, "census: ANN probes\n")
	nt, err := neighborsQueries(e.seed, ix, func(name string) []float64 {
		v, _ := loaded.Embedding.Vector(name)
		return v
	})
	if err != nil {
		return err
	}
	if err := annProbes(e, o, ix, nt); err != nil {
		return err
	}
	o.layers["ann.cache.hit_ratio"], err = replayHits(o, h, nt.qs, readNeighbors)
	return err
}

// replayHits sends qs one after another and returns the share of the
// cacheable units of the replies that were cache hits.
func replayHits(o *outcome, h http.Handler, qs []query, read func(*query, []byte) reply) (float64, error) {
	var hits, units int
	for i := range qs {
		o.attempted++
		body, err := serveOnce(h, &qs[i])
		if err != nil {
			o.failed++
			return 0, err
		}
		r := read(&qs[i], body)
		hits += r.hits
		units += r.units
	}
	return float64(hits) / float64(units), nil
}

// envelopeProbe sends each of the first probeRequests one-row requests
// of qs twice and times the second, which the row cache answers. It
// returns the median time of those answered wholly from the cache, in
// microseconds: the cost of the serving envelope alone.
func envelopeProbe(e *env, o *outcome, h http.Handler, qs []query) (float64, error) {
	l := e.tr.log()
	w := newRespWriter()
	var ds []time.Duration
	for i := range qs {
		q := &qs[i]
		if q.rows != 1 {
			continue
		}
		if len(ds) == probeRequests {
			break
		}
		o.attempted += 2
		if _, err := serveOnce(h, q); err != nil {
			o.failed++
			return 0, err
		}
		req, err := q.request()
		if err != nil {
			return 0, err
		}
		w.reset()
		d, _ := l.time("serve.http", 0, e.tr.newReq(), func() error {
			h.ServeHTTP(w, req)
			return nil
		})
		if w.status < 200 || w.status >= 300 {
			o.failed++
			return 0, fmt.Errorf("%s %s: status %d", q.method, q.target, w.status)
		}
		if readFeaturize(q, w.body.Bytes()).envelope {
			ds = append(ds, d)
		}
	}
	if len(ds) == 0 {
		return 0, fmt.Errorf("no one-row request was answered from the row cache")
	}
	return medianDur(ds, time.Microsecond), nil
}
