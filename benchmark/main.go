// Command levaperf is the repository benchmark. It runs one workload in
// process against the public entry points of internal/synth, core,
// serve and ann, checks the outputs, and prints the workload's metrics
// as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds it from the checkout's sources:
//
//	bash benchmark/run.sh --workload featurize --seed 1 --seconds 15 --trace 0
//
// Every workload reports every end-to-end metric with --trace 0. --trace
// 1 makes a separate traced run that ends with a census of every layer
// and prints every per-layer metric, the self time of every traced
// layer, and writes the spans to .bench_build/trace-<workload>.jsonl.
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// scratchRoot holds everything a run writes, relative to the
// repository root the benchmark runs from.
const scratchRoot = ".bench_build"

// env is what a workload gets from the command line.
type env struct {
	seed int64
	// scale sizes the Genes dataset; runs use genesScale.
	scale  float64
	window time.Duration
	// tr is nil in an untraced run.
	tr *tracer
	// dir is a scratch directory inside the checkout, removed at exit.
	dir string
	// log receives progress lines; standard output is reserved for
	// the run record and the result.
	log io.Writer
	// extra collects run-record details such as sample counts.
	extra map[string]any
}

// outcome is what a workload measured and checked.
type outcome struct {
	attempted, failed int
	// problems lists every failed output check.
	problems []string
	e2e      map[string]float64
	layers   map[string]float64
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type workload struct {
	name, why string
	run       func(*env) (*outcome, error)
}

func workloadByName(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("levaperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: build, featurize or neighbors")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 makes a traced run that reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "levaperf: need --workload build|featurize|neighbors, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		fmt.Fprintf(stderr, "levaperf: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "levaperf: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	e := &env{seed: *seed, scale: genesScale, window: time.Duration(*seconds) * time.Second, dir: dir, log: stderr, extra: map[string]any{}}
	if *trace == 1 {
		e.tr = newTracer()
	}
	rec := newRecord(w.name, *seed, *seconds, *trace)
	steal0, total0, statErr := cpuTicks()
	out, err := w.run(e)
	if err != nil {
		fmt.Fprintf(stderr, "levaperf: %s: %v\n", w.name, err)
		return 1
	}
	// The share of CPU time the hypervisor took from this machine while
	// the workload ran tells a slow run on a busy host from a slow
	// program.
	if steal1, total1, err := cpuTicks(); statErr == nil && err == nil && total1 > total0 {
		e.extra["cpu_steal_pct"] = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	rec.Extra = e.extra

	decls, values := endToEnd, out.e2e
	if e.tr != nil {
		decls, values = perLayer, out.layers
		spans := e.tr.all()
		path := filepath.Join(scratchRoot, "trace-"+w.name+".jsonl")
		if err := writeSpans(path, spans); err != nil {
			fmt.Fprintf(stderr, "levaperf: %v\n", err)
			return 1
		}
		rec.Spans, rec.SpanFile = len(spans), path
		printSelfTimes(stdout, selfTimes(spans))
	}
	metrics, err := emit(decls, values)
	if err != nil {
		fmt.Fprintf(stderr, "levaperf: %s: %v\n", w.name, err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "levaperf: check failed: %s\n", p)
	}
	if out.failed > 0 {
		fmt.Fprintf(stderr, "levaperf: %d of %d operations failed\n", out.failed, out.attempted)
	}
	correct := len(out.problems) == 0 && out.failed == 0 && out.attempted > 0
	if err := json.NewEncoder(stdout).Encode(map[string]any{"run": rec}); err != nil {
		fmt.Fprintf(stderr, "levaperf: %v\n", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(result{Correct: correct, Attempted: out.attempted, Failed: out.failed, Metrics: metrics}); err != nil {
		fmt.Fprintf(stderr, "levaperf: %v\n", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// emit pairs every declared metric with its measured value. A workload
// that measured a metric it does not declare, or missed one it does, is
// a bug in the benchmark, as is a value that is not a finite number.
func emit(decls []metricDecl, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(decls))
	for _, d := range decls {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	var extra []string
	for k := range values {
		if _, ok := out[k]; !ok {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics measured: %v", extra)
	}
	return out, nil
}
