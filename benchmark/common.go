package main

import (
	"fmt"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/ml"
)

// The contract of the benchmark has every workload report every
// end-to-end metric. A metric its window does not produce is measured
// in a side phase after the window, so the window itself stays what
// the workload is about. The functions here are those side phases.

const (
	// recallSampleVectors is the size of the HNSW index the featurize
	// workload checks recall_at_10 on: a sample of its own embedding,
	// so the check costs about a second and not the seven an index
	// over every vector takes.
	recallSampleVectors = 2048
)

// forestAccuracy trains a random forest on the Leva features of sd and
// returns its test accuracy, checking that it beats the majority
// class.
func forestAccuracy(e *env, o *outcome, sd *core.SupervisedData) float64 {
	fmt.Fprintf(e.log, "random forest\n")
	o.attempted++
	rf := &ml.RandomForest{Seed: e.seed}
	rf.Fit(sd.XTrain, sd.YClassTrain)
	acc := ml.Accuracy(rf.Predict(sd.XTest), sd.YClassTest)
	majority := majorityShare(sd.YClassTest, sd.NumClasses)
	e.extra["majority_class_share"] = majority
	o.check(acc > majority, "random-forest accuracy %.4f is not above the majority-class share %.4f", acc, majority)
	return acc
}

// classificationRef runs PrepareClassification on the workload's
// dataset without a stage cache.
func classificationRef(e *env) (*core.Task, *core.SupervisedData, error) {
	fmt.Fprintf(e.log, "classification build\n")
	spec := genesSpec(e)
	task := &core.Task{DB: spec.DB, BaseTable: spec.BaseTable, Target: spec.Target, Seed: e.seed}
	sd, err := core.PrepareClassification(*task, core.Config{Seed: e.seed})
	if err != nil {
		return nil, nil, fmt.Errorf("prepare classification: %w", err)
	}
	return task, sd, nil
}

// sampleRecall builds an HNSW index over the first recallSampleVectors
// vectors of emb and returns the recall@10 of its searches against
// exact scans, on queries drawn as the neighbors workload draws them.
func sampleRecall(e *env, o *outcome, emb *embed.Embedding) (float64, error) {
	fmt.Fprintf(e.log, "recall sample index\n")
	names := emb.Names()
	names = names[:min(recallSampleVectors, len(names))]
	vecs := make([][]float64, len(names))
	for i, n := range names {
		vecs[i], _ = emb.Vector(n)
	}
	ix, err := ann.BuildVectors(names, vecs, ann.Options{Seed: e.seed})
	if err != nil {
		return 0, fmt.Errorf("build sample index: %w", err)
	}
	tr, err := neighborsQueries(e.seed, ix, func(name string) []float64 {
		v, _ := emb.Vector(name)
		return v
	})
	if err != nil {
		return 0, err
	}
	var recall float64
	n := 0
	err = recallSample(tr, func(i int) error {
		o.attempted++
		var got, exact []ann.Result
		var err error
		if tok := tr.tokens[i]; tok != "" {
			if got, err = ix.SearchName(tok, neighborsK, 0); err == nil {
				exact, err = ix.BruteForceName(tok, neighborsK)
			}
		} else if got, err = ix.SearchVector(tr.vectors[i], neighborsK, 0); err == nil {
			exact, err = ix.BruteForceVector(tr.vectors[i], neighborsK)
		}
		if err != nil {
			o.failed++
			return fmt.Errorf("sample index search: %w", err)
		}
		names := make([]string, len(got))
		for j, r := range got {
			names[j] = r.Name
		}
		recall += overlap(names, exact)
		n++
		return nil
	})
	if err != nil {
		return 0, err
	}
	return recall / float64(n), nil
}

// recallSample calls f with the pool index of the first recallTokens
// token queries and the first recallVectors vector queries of tr.
func recallSample(tr *neighborsTraffic, f func(i int) error) error {
	var nTok, nVec int
	for i := range tr.qs {
		if nTok == recallTokens && nVec == recallVectors {
			break
		}
		if tr.tokens[i] != "" {
			if nTok == recallTokens {
				continue
			}
			nTok++
		} else {
			if nVec == recallVectors {
				continue
			}
			nVec++
		}
		if err := f(i); err != nil {
			return err
		}
	}
	return nil
}

// overlap is the share of the exact answers that got holds.
func overlap(got []string, exact []ann.Result) float64 {
	want := make(map[string]bool, len(exact))
	for _, r := range exact {
		want[r.Name] = true
	}
	found := 0
	for _, n := range got {
		if want[n] {
			found++
		}
	}
	return float64(found) / float64(len(exact))
}
