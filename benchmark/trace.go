package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one request share req;
// parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer started.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the spans of a traced run in memory. Each goroutine
// records into its own spanLog, so recording takes no lock.
type tracer struct {
	t0      time.Time
	nextReq atomic.Int64

	mu   sync.Mutex
	logs []*spanLog
}

// spanLog is the span buffer of one goroutine.
type spanLog struct {
	tr    *tracer
	base  int64
	spans []span
}

const spanIndexBits = 40

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// log returns a new span buffer for one goroutine; nil on a nil tracer,
// which makes every recording call below a no-op.
func (t *tracer) log() *spanLog {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &spanLog{tr: t, base: int64(len(t.logs)+1) << spanIndexBits}
	t.logs = append(t.logs, l)
	return l
}

// newReq returns a fresh request id.
func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	return t.nextReq.Add(1)
}

// begin opens a span and returns its id.
func (l *spanLog) begin(name string, parent, req int64) int64 {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{
		ID: l.base | int64(len(l.spans)+1), Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(l.tr.t0)),
	})
	return l.spans[len(l.spans)-1].ID
}

// end closes the span id returned by begin.
func (l *spanLog) end(id int64) {
	if l == nil {
		return
	}
	l.spans[id&(1<<spanIndexBits-1)-1].End = int64(time.Since(l.tr.t0))
}

// time runs f inside a span and returns how long f took, the
// recording of the span included. On a nil log it only times f.
func (l *spanLog) time(name string, parent, req int64, f func() error) (time.Duration, error) {
	t0 := time.Now()
	id := l.begin(name, parent, req)
	err := f()
	l.end(id)
	return time.Since(t0), err
}

// all returns every recorded span. Call it only after every goroutine
// that records has finished.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, l := range t.logs {
		out = append(out, l.spans...)
	}
	return out
}

// layerTime is the aggregate of every span with one name.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of its interval that its children cover.
func selfTimes(spans []span) []layerTime {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*layerTime)
	for _, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		lt.Count++
		lt.Total += s.dur()
		lt.Self += s.dur() - covered(s, children[s.ID])
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// printSelfTimes writes one line per layer: span count, total and self
// time.
func printSelfTimes(w io.Writer, lts []layerTime) {
	fmt.Fprintf(w, "%-36s %9s %12s %12s\n", "layer", "spans", "total_ms", "self_ms")
	for _, lt := range lts {
		fmt.Fprintf(w, "%-36s %9d %12.3f %12.3f\n", lt.Name, lt.Count,
			float64(lt.Total)/1e6, float64(lt.Self)/1e6)
	}
}

// writeSpans writes spans to path as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
