package main

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/serve"
)

const (
	// setupRounds is how many times a serving workload runs its whole
	// setup; setup_s is the median. The window is measured in as many
	// pieces, one after each round.
	setupRounds = 4
	// poolSize is the number of requests generated before the window;
	// clients cycle through them.
	poolSize = 16384
	// warmup is the untimed closed-loop run before each piece of the
	// window.
	warmup = time.Second
)

// servingFixture is what one setup round produces.
type servingFixture struct {
	// base is the base table as the bundle was built from it: without
	// the target column.
	base  *dataset.Table
	built *core.Result
	// loaded is the bundle the server starts with, loaded from dir.
	loaded *core.Result
	dir    string
	index  *ann.Index

	setup time.Duration
	// cold is the embedding build against an empty stage cache, with
	// the peak resident set, allocation and collections during it;
	// warm are the rebuilds against the filled cache after setup.
	cold              time.Duration
	peak, allocMB, gc float64
	warm              []time.Duration
}

// setupRound generates the dataset, builds the embedding over every
// table (the base table without its target, as `leva embed` would see
// it) against an empty stage cache, saves and loads the bundle and,
// when withIndex, builds the HNSW index over the whole embedding. That
// is the setup it times. It then rebuilds the embedding warmPerCold
// times against the filled stage cache.
func setupRound(e *env, o *outcome, round int, withIndex bool) (*servingFixture, error) {
	fmt.Fprintf(e.log, "setup round %d\n", round+1)
	f := &servingFixture{}
	// Every round starts from a collected heap returned to the
	// operating system, as in a fresh process.
	debug.FreeOSMemory()
	start := time.Now()
	spec := genesSpec(e)
	f.base = spec.DB.Table(spec.BaseTable).DropColumns(spec.Target)
	db := spec.DB.Without(spec.BaseTable)
	db.Add(f.base)
	cfg := core.Config{Seed: e.seed, CacheDir: filepath.Join(e.dir, fmt.Sprintf("stages-%d", round))}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	o.attempted++
	t0 := time.Now()
	var err error
	f.built, err = core.BuildEmbedding(db, cfg)
	f.cold = time.Since(t0)
	if err != nil {
		o.failed++
		return nil, fmt.Errorf("build embedding: %w", err)
	}
	runtime.ReadMemStats(&after)
	if f.peak, err = peakRSSMiB(); err != nil {
		return nil, err
	}
	f.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	f.gc = float64(after.NumGC - before.NumGC)
	checkStages(o, f.built, core.StageRebuilt)
	f.dir = filepath.Join(e.dir, fmt.Sprintf("bundle-%d", round))
	if err := f.built.SaveBundle(f.dir); err != nil {
		return nil, fmt.Errorf("save bundle: %w", err)
	}
	if f.loaded, err = core.LoadBundle(f.dir); err != nil {
		return nil, fmt.Errorf("load bundle: %w", err)
	}
	if withIndex {
		if f.index, err = ann.Build(f.loaded.Embedding, ann.Options{Seed: e.seed}); err != nil {
			return nil, fmt.Errorf("build ANN index: %w", err)
		}
	}
	f.setup = time.Since(start)

	for i := 0; i < warmPerCold; i++ {
		debug.FreeOSMemory()
		o.attempted++
		t0 := time.Now()
		warm, err := core.BuildEmbedding(db, cfg)
		d := time.Since(t0)
		if err != nil {
			o.failed++
			return nil, fmt.Errorf("warm build embedding: %w", err)
		}
		f.warm = append(f.warm, d)
		checkStages(o, warm, core.StageCached)
		o.check(sameEmbedding(warm.Embedding, f.built.Embedding), "warm rebuild embedding differs from the cold build's")
	}
	return f, os.RemoveAll(cfg.CacheDir)
}

// session is a workload's server over one round's fixture.
type session struct {
	srv  *serve.Server
	h    http.Handler
	qs   []query
	read func(*query, []byte) reply
	// beside, if set, runs beside each measured piece of the window
	// until stop is closed.
	beside func(piece time.Duration, stop <-chan struct{})
}

// served is the outcome of serveRounds.
type served struct {
	// f and s are the last round's fixture and session; they stay up
	// for the checks.
	f *servingFixture
	s *session
	// run merges the window's pieces.
	run               *loadRun
	gcPause           time.Duration
	setup, cold, warm []time.Duration
	peak, allocMB, gc []float64
}

// serveRounds runs setupRounds setup rounds. After each it opens a
// session on the round's fixture, warms it up and measures one of
// setupRounds equal pieces of the window. On a shared VM the machine's
// speed wanders over tens of seconds, so a window spread over the
// whole run averages more of it out than one measured at its end. Each
// round starts with the previous round's fixture and session released
// and collected, so every round finds the same heap.
func serveRounds(e *env, o *outcome, withIndex bool, open func(*servingFixture) (*session, error)) (*served, error) {
	sv := &served{run: &loadRun{}}
	piece := e.window / setupRounds
	for round := 0; round < setupRounds; round++ {
		if sv.f != nil {
			if err := os.RemoveAll(sv.f.dir); err != nil {
				return nil, err
			}
		}
		sv.f, sv.s = nil, nil
		f, err := setupRound(e, o, round, withIndex)
		if err != nil {
			return nil, err
		}
		sv.setup = append(sv.setup, f.setup)
		sv.cold = append(sv.cold, f.cold)
		sv.warm = append(sv.warm, f.warm...)
		sv.peak = append(sv.peak, f.peak)
		sv.allocMB = append(sv.allocMB, f.allocMB)
		sv.gc = append(sv.gc, f.gc)
		s, err := open(f)
		if err != nil {
			return nil, err
		}
		if _, err := closedLoop(s.h, s.qs, runtime.NumCPU(), warmup, 1, nil, s.read); err != nil {
			return nil, err
		}
		run, pause, err := measurePiece(e, s, piece)
		if err != nil {
			return nil, err
		}
		sv.run.add(run)
		sv.gcPause += pause
		sv.f, sv.s = f, s
	}
	e.extra["setup_rounds_s"] = durationsIn(sv.setup, time.Second)
	o.e2e[setupS.name] = medianDur(sv.setup, time.Second)
	o.e2e[buildColdS.name] = medianDur(sv.cold, time.Second)
	o.e2e[buildWarmS.name] = medianDur(sv.warm, time.Second)
	o.e2e[peakRSSMB.name] = median(sv.peak)
	o.layers[goAllocMB.name] = median(sv.allocMB)
	o.layers[goGCCycles.name] = median(sv.gc)
	o.layers[goGCPauseMS.name] = float64(sv.gcPause) / 1e6
	return sv, nil
}

// servingAccuracy is the side phase both workloads end with: a random
// forest on a classification build of the dataset, and, in a traced
// run, the layer census over that build.
func servingAccuracy(e *env, o *outcome) error {
	task, ref, err := classificationRef(e)
	if err != nil {
		return err
	}
	o.e2e[accuracy.name] = forestAccuracy(e, o, ref)
	if e.tr != nil {
		return layerCensus(e, o, task, ref)
	}
	return nil
}

// newServer wraps a loaded bundle and index in a Server configured as
// levad ships by default, except that the per-request JSON log goes to
// io.Discard, so its cost is still paid.
func newServer(res *core.Result, index *ann.Index, loader func() (*core.Result, error)) *serve.Server {
	return serve.New(res, serve.Config{
		Logger: slog.New(slog.NewJSONHandler(io.Discard, nil)),
		Loader: loader,
		Index:  index,
	})
}

// measurePiece runs one measured piece of the window with one client
// per CPU, and s.beside beside it, and also returns the total GC pause
// over the piece.
func measurePiece(e *env, s *session, piece time.Duration) (*loadRun, time.Duration, error) {
	clients := runtime.NumCPU()
	e.extra["clients"] = clients
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if s.beside != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.beside(piece, stop)
		}()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run, err := closedLoop(s.h, s.qs, clients, piece, slicesPerPiece, e.tr, s.read)
	runtime.ReadMemStats(&after)
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, 0, err
	}
	return run, time.Duration(after.PauseTotalNs - before.PauseTotalNs), nil
}

// latencyMetrics reports the untraced window's throughput and latency
// percentiles. latency_p99_ms needs at least ten samples beyond the
// 99th percentile.
func latencyMetrics(e *env, o *outcome, run *loadRun) error {
	lat := sortedCopy(durationsIn(run.lat, time.Millisecond))
	tail := tailPercentile(len(lat))
	if tail < 99 {
		return fmt.Errorf("%d latency samples do not support a 99th percentile", len(lat))
	}
	o.e2e[throughputRPS.name] = run.throughput()
	e.extra["slice_rps"] = run.sliceRPS
	o.e2e[latencyP50MS.name] = percentile(lat, 50)
	o.layers[latencyP99MS.name] = percentile(lat, 99)
	e.extra[latencyP99MS.name] = o.layers[latencyP99MS.name]
	e.extra["latency_samples"] = len(lat)
	e.extra["latency_tail_percentile"] = tail
	e.extra["latency_tail_ms"] = percentile(lat, tail)
	if e.tr != nil {
		o.layers[traceOverheadPc.name] = overheadPct(run.iter[0], run.iter[1])
	}
	o.attempted += run.sent
	o.failed += run.failed
	e.extra["requests_sent"] = run.sent
	e.extra["requests_ok"] = run.ok
	e.extra["requests_failed"] = run.failed
	e.extra["requests_shed"] = run.shed
	e.extra["requests_degraded"] = run.degraded
	e.extra["window_cache_hit_ratio"] = float64(run.hits) / float64(run.units)
	e.extra["window_envelope_us_p50"] = medianDur(run.envelope, time.Microsecond)
	e.extra["window_envelope_samples"] = len(run.envelope)
	return nil
}

// overheadPct is the relative difference between the medians of the
// traced and untraced samples, in percent.
func overheadPct(untraced, traced []time.Duration) float64 {
	u := medianDur(untraced, time.Nanosecond)
	return (medianDur(traced, time.Nanosecond) - u) / u * 100
}

// liveHeapMiB is HeapInuse after a full collection.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// jsonValue converts a cell to the JSON value a client would send.
func jsonValue(v dataset.Value) (any, error) {
	switch v.Kind {
	case dataset.KindNull:
		return nil, nil
	case dataset.KindString:
		return v.Str, nil
	case dataset.KindNumber:
		return v.Num, nil
	default:
		return nil, fmt.Errorf("no JSON form for a %s cell", v.Kind)
	}
}
