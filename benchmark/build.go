package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/graph"
	"repro/internal/synth"
	"repro/internal/textify"
)

const (
	// genesScale sizes every workload's dataset: Genes at scale 1 has
	// ~8.2k embedding vectors, twice the serving caches' 4096 entries.
	genesScale = 1.0
	// embedDim is the embedding size `leva embed` uses by default.
	embedDim = 100
	// warmPerCold is how many warm rebuilds follow each setup round's
	// cold build.
	warmPerCold = 3
)

func genesSpec(e *env) *synth.Spec {
	return synth.Genes(synth.GenesOptions{Scale: e.scale, Seed: e.seed})
}

// checkStages checks that every stage of a build was satisfied as
// expected.
func checkStages(o *outcome, res *core.Result, want core.StageOutcome) {
	c := res.Timings.Cache
	o.check(c.Textify == want && c.Graph == want && c.Embed == want,
		"stage outcomes textify=%s graph=%s embed=%s, want all %s", c.Textify, c.Graph, c.Embed, want)
}

func sameMatrix(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func majorityShare(y []int, classes int) float64 {
	counts := make([]int, classes)
	best := 0
	for _, c := range y {
		counts[c]++
		best = max(best, counts[c])
	}
	return float64(best) / float64(len(y))
}

// layerRounds is how many times the traced run repeats each layer call
// that takes less than a second; it reports the median.
const layerRounds = 5

// buildLayers times each layer of the pipeline, calling the layers'
// public functions directly on the same input PrepareClassification
// embeds, then runs the core stages against empty and then filled
// stage caches. MF and the cold embed stage take seconds and run once;
// every other call runs layerRounds times.
func buildLayers(e *env, o *outcome, task core.Task, ref *core.SupervisedData) error {
	fmt.Fprintf(e.log, "build: per-layer calls\n")
	l := e.tr.log()
	base := task.DB.Table(task.BaseTable)
	trainBase := base.SelectRows(ref.Split.Train).DropColumns(task.Target)
	db := task.DB.Without(task.BaseTable)
	db.Add(trainBase)

	samples := map[string][]time.Duration{}
	timed := func(name string, parent int64, f func() error) error {
		d, err := l.time(name, parent, 0, f)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		samples[name] = append(samples[name], d)
		return nil
	}
	var (
		model *textify.Model
		tok   []*textify.TokenizedTable
		g     *graph.Graph
		emb   *embed.Embedding
	)
	steps := []struct {
		name   string
		rounds int
		f      func() error
	}{
		{"textify.fit", layerRounds, func() (err error) { model, err = textify.Fit(db, textify.Options{}); return }},
		{"textify.transform", layerRounds, func() (err error) { tok, err = model.TransformAll(db); return }},
		{"graph.build", layerRounds, func() error { g, _ = graph.Build(tok, graph.Options{}); return nil }},
		{"embed.mf", 1, func() error { emb = embed.MF(g, embed.MFOptions{Dim: embedDim, Seed: e.seed}); return nil }},
	}
	layers := l.begin("build.layers", 0, 0)
	for _, s := range steps {
		for i := 0; i < s.rounds; i++ {
			if err := timed(s.name, layers, s.f); err != nil {
				return err
			}
		}
	}
	l.end(layers)
	o.layers["graph.nodes"] = float64(g.NumNodes())
	o.layers["graph.edges"] = float64(g.NumEdges())
	o.check(ref.Result.MethodUsed == embed.MethodMF, "pipeline chose %s, want mf", ref.Result.MethodUsed)
	o.check(sameEmbedding(emb, ref.Result.Embedding), "direct MF embedding differs from the pipeline's")

	// stages runs the three core stages against the cache in dir; the
	// embed stage only when withEmbed.
	cfg := core.Config{Dim: embedDim, Method: embed.MethodAuto, Seed: e.seed}
	stages := func(dir, phase string, withEmbed bool) error {
		parent := l.begin("core.stages."+phase, 0, 0)
		defer l.end(parent)
		cache := core.NewCache(dir)
		ts := &core.TextifyStage{DB: db, Cache: cache}
		gs := &core.GraphStage{Method: embed.MethodAuto, Dim: embedDim, Cache: cache}
		es := &core.EmbedStage{Cfg: cfg, Cache: cache}
		stage := func(name string, f func() (cached bool, err error)) error {
			name = "core." + name + "_stage." + phase
			return timed(name, parent, func() error {
				cached, err := f()
				o.check(err != nil || cached == (phase == "warm"), "%s: cached=%v", name, cached)
				return err
			})
		}
		err := stage("textify", func() (bool, error) {
			_, tok, reused, _, err := ts.Run()
			gs.Tokenized = tok
			return reused == len(db.Tables), err
		})
		if err != nil {
			return err
		}
		gs.InputFP = ts.Fingerprint()
		err = stage("graph", func() (cached bool, err error) {
			es.Graph, _, _, cached, err = gs.Run()
			return
		})
		if err != nil || !withEmbed {
			return err
		}
		es.InputFP = gs.Fingerprint()
		return stage("embed", func() (cached bool, err error) {
			_, _, cached, err = es.Run()
			return
		})
	}
	full := filepath.Join(e.dir, "stages-0")
	for i := 0; i < layerRounds; i++ {
		if err := stages(filepath.Join(e.dir, fmt.Sprintf("stages-%d", i)), "cold", i == 0); err != nil {
			return err
		}
	}
	for i := 0; i < layerRounds; i++ {
		if err := stages(full, "warm", true); err != nil {
			return err
		}
	}
	size, err := dirBytes(full)
	if err != nil {
		return err
	}
	o.layers["core.cache_bytes"] = float64(size)

	testBase := base.SelectRows(ref.Split.Test)
	for i := 0; i < layerRounds; i++ {
		err := timed("core.featurize", 0, func() error {
			if _, err := ref.Result.Featurize(trainBase, task.BaseTable, nil, func(i int) int { return i }); err != nil {
				return err
			}
			_, err := ref.Result.Featurize(testBase, task.BaseTable, []string{task.Target}, func(int) int { return -1 })
			return err
		})
		if err != nil {
			return err
		}
	}
	for name, ds := range samples {
		o.layers[name+"_ms"] = medianDur(ds, time.Millisecond)
	}
	return nil
}

func sameEmbedding(a, b *embed.Embedding) bool {
	if a.Len() != b.Len() || a.Dim != b.Dim {
		return false
	}
	for _, name := range a.Names() {
		va, _ := a.Vector(name)
		vb, ok := b.Vector(name)
		if !ok || len(va) != len(vb) {
			return false
		}
		for i := range va {
			if va[i] != vb[i] {
				return false
			}
		}
	}
	return true
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
