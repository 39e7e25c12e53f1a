package main

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// slicesPerPiece is the number of equal sub-windows each piece of a
// serving window is cut into. throughput_rps is the median over all of
// them, so that a burst of load from outside the benchmark moves a few
// sub-windows and not the result. The featurize workload reloads once
// in the middle of every sub-window.
const slicesPerPiece = 6

// query is one request generated from the seed before any window
// starts.
type query struct {
	method, target string
	body           []byte
	// rows is the number of rows a featurize request carries.
	rows int
}

func (q *query) request() (*http.Request, error) {
	return http.NewRequest(q.method, "http://levad"+q.target, bytes.NewReader(q.body))
}

// respWriter is an in-memory http.ResponseWriter reused across the
// requests of one client, so the client adds as little as possible to
// what the handler allocates.
type respWriter struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func newRespWriter() *respWriter { return &respWriter{hdr: make(http.Header)} }

func (w *respWriter) Header() http.Header { return w.hdr }

func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *respWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

func (w *respWriter) reset() {
	clear(w.hdr)
	w.status = 0
	w.body.Reset()
}

// reply is what a workload reads from one 2xx response.
type reply struct {
	// hits and units count cache hits among the cacheable units of the
	// request: rows of a featurize request, or one token query.
	hits, units int
	// envelope marks a request answered entirely from a cache, whose
	// time is the cost of the serving envelope alone.
	envelope bool
	degraded bool
}

// clientStats is what one client goroutine measured.
type clientStats struct {
	// lat holds the ServeHTTP time of each request in an untraced
	// slice.
	lat []time.Duration
	// iter holds the client's whole time per request, span recording
	// included, split by whether the request fell into a traced slice.
	iter [2][]time.Duration
	// okPerSlice counts 2xx responses by the sub-window they started
	// in.
	okPerSlice             []int
	envelope               []time.Duration
	sent, ok, failed, shed int
	hits, units, degraded  int
}

func (s *clientStats) add(o *clientStats) {
	s.lat = append(s.lat, o.lat...)
	for i := range s.iter {
		s.iter[i] = append(s.iter[i], o.iter[i]...)
	}
	s.envelope = append(s.envelope, o.envelope...)
	s.sent += o.sent
	s.ok += o.ok
	s.failed += o.failed
	s.shed += o.shed
	s.hits += o.hits
	s.units += o.units
	s.degraded += o.degraded
}

// loadRun is the outcome of closed-loop runs: one, or the pieces of a
// window merged.
type loadRun struct {
	clientStats
	// sliceRPS holds the 2xx responses per second of each sub-window.
	sliceRPS []float64
}

func (r *loadRun) add(o *loadRun) {
	r.clientStats.add(&o.clientStats)
	r.sliceRPS = append(r.sliceRPS, o.sliceRPS...)
}

// throughput returns the median over the sub-windows of 2xx responses
// per second.
func (r *loadRun) throughput() float64 { return median(r.sliceRPS) }

// closedLoop drives h with `clients` goroutines for the window, cut
// into `slices` equal sub-windows for the throughput. Each
// client sends its next request only after the previous one returns,
// walking qs from its own offset. The latency of a request is its
// ServeHTTP time. With a tracer, every other sub-window is traced:
// each request then records a root span and one child span per step,
// all sharing a request id. Interleaving short sub-windows, rather
// than tracing one half of the window, keeps slow drift of the machine
// out of the measured tracing overhead.
func closedLoop(h http.Handler, qs []query, clients int, window time.Duration, slices int, tr *tracer, read func(*query, []byte) reply) (*loadRun, error) {
	per := make([]*clientStats, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	slice := window / time.Duration(slices)
	for c := 0; c < clients; c++ {
		// A request can start just after the deadline, in one more
		// slice.
		st := &clientStats{okPerSlice: make([]int, slices+1), lat: make([]time.Duration, 0, 1<<16)}
		for i := range st.iter {
			st.iter[i] = make([]time.Duration, 0, 1<<16)
		}
		per[c] = st
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = client(h, qs, c, clients, start, window, slice, tr, read, st)
		}(c)
	}
	wg.Wait()
	run := &loadRun{sliceRPS: make([]float64, slices)}
	for c, st := range per {
		if errs[c] != nil {
			return nil, errs[c]
		}
		run.clientStats.add(st)
		for i := range run.sliceRPS {
			run.sliceRPS[i] += float64(st.okPerSlice[i]) / slice.Seconds()
		}
	}
	return run, nil
}

func client(h http.Handler, qs []query, c, stride int, start time.Time, window, slice time.Duration, tr *tracer, read func(*query, []byte) reply, st *clientStats) error {
	w := newRespWriter()
	l := tr.log()
	deadline := start.Add(window)
	for i := c; ; i += stride {
		now := time.Now()
		if !now.Before(deadline) {
			return nil
		}
		q := &qs[i%len(qs)]
		traced := 0
		if tr != nil && (now.Sub(start)/slice)%2 == 1 {
			traced = 1
		}
		var rid, root, sp int64
		if traced == 1 {
			rid = tr.newReq()
			root = l.begin("client.request", 0, rid)
			sp = l.begin("client.new_request", root, rid)
		}
		req, err := q.request()
		if err != nil {
			return fmt.Errorf("build request %s %s: %w", q.method, q.target, err)
		}
		w.reset()
		if traced == 1 {
			l.end(sp)
			sp = l.begin("serve.http", root, rid)
		}
		t0 := time.Now()
		h.ServeHTTP(w, req)
		d := time.Since(t0)
		if traced == 1 {
			l.end(sp)
			sp = l.begin("client.read_response", root, rid)
		}
		st.sent++
		if traced == 0 {
			st.lat = append(st.lat, d)
		}
		switch {
		case w.status >= 200 && w.status < 300:
			st.ok++
			st.okPerSlice[t0.Sub(start)/slice]++
			r := read(q, w.body.Bytes())
			st.hits += r.hits
			st.units += r.units
			if r.degraded {
				st.degraded++
			}
			if r.envelope && traced == 0 {
				st.envelope = append(st.envelope, d)
			}
		case w.status == http.StatusTooManyRequests:
			st.shed++
			st.failed++
		default:
			st.failed++
		}
		if traced == 1 {
			l.end(sp)
			l.end(root)
		}
		st.iter[traced] = append(st.iter[traced], time.Since(now))
	}
}

// serveOnce sends one request and returns the response body.
func serveOnce(h http.Handler, q *query) ([]byte, error) {
	req, err := q.request()
	if err != nil {
		return nil, err
	}
	w := newRespWriter()
	h.ServeHTTP(w, req)
	if w.status < 200 || w.status >= 300 {
		return nil, fmt.Errorf("%s %s: status %d: %s", q.method, q.target, w.status, bytes.TrimSpace(w.body.Bytes()))
	}
	return w.body.Bytes(), nil
}

// allocsPerRequest sends qs one after another and returns the heap
// allocations and bytes per request. Requests are built before the
// measurement, so the counts are the handler's own.
func allocsPerRequest(h http.Handler, qs []query) (allocs, bytes float64, err error) {
	reqs := make([]*http.Request, len(qs))
	for i := range qs {
		if reqs[i], err = qs[i].request(); err != nil {
			return 0, 0, err
		}
	}
	w := newRespWriter()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, r := range reqs {
		w.reset()
		h.ServeHTTP(w, r)
		if w.status < 200 || w.status >= 300 {
			return 0, 0, fmt.Errorf("%s %s: status %d", qs[i].method, qs[i].target, w.status)
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(len(reqs))
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n, nil
}
