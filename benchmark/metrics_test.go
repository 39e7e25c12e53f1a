package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnitsAreWellFormed(t *testing.T) {
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q", w.name)
		}
	}
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s unit %q", d.name, d.unit)
		}
	}
}

// TestBenchmarkJSONMatchesDeclarations keeps BENCHMARK.json and the
// benchmark's declarations in step: the same workloads, and the same
// metrics in the same order, each listed once, with the same unit.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
	for kind, listed := range map[string][]metric{"end_to_end": bj.EndToEnd, "per_layer": bj.PerLayer} {
		decls := endToEnd
		if kind == "per_layer" {
			decls = perLayer
		}
		if len(listed) != len(decls) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark declares %d", kind, len(listed), len(decls))
			continue
		}
		seen := map[string]bool{}
		for i, m := range listed {
			if seen[m.Name] {
				t.Errorf("%s lists %s twice", kind, m.Name)
			}
			seen[m.Name] = true
			if m.Name != decls[i].name || m.Unit != decls[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]", kind, i, m.Name, m.Unit, decls[i].name, decls[i].unit)
			}
		}
	}
}

// TestWorkloadsEmitEveryMetric runs every workload on a small dataset
// with a short window, untraced and traced, and checks that each run
// passes its output checks and measures exactly every end-to-end
// metric (untraced) or every per-layer metric (traced).
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			e := &env{seed: 3, scale: 0.25, window: time.Second, dir: t.TempDir(), log: testLog{t}, extra: map[string]any{}}
			decls := endToEnd
			if traced {
				e.tr = newTracer()
			}
			o, err := w.run(e)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			values := o.e2e
			if traced {
				decls, values = perLayer, o.layers
				if len(e.tr.all()) == 0 {
					t.Errorf("%s: traced run recorded no spans", w.name)
				}
			}
			if _, err := emit(decls, values); err != nil {
				t.Errorf("%s traced=%v: %v", w.name, traced, err)
			}
			if len(o.problems) > 0 || o.failed > 0 || o.attempted == 0 {
				t.Errorf("%s traced=%v: problems %v, %d of %d failed", w.name, traced, o.problems, o.failed, o.attempted)
			}
		}
	}
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Logf("%s", p)
	return len(p), nil
}
