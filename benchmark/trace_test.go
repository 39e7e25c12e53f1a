package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildIntervals(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Overlapping children cover [10, 50) once.
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 50},
		// A child running past its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120},
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	if s := got["root"].Self; s != 50*time.Nanosecond {
		t.Errorf("root self time %v, want 50ns", s)
	}
	if c := got["child"]; c.Count != 2 || c.Self != 50*time.Nanosecond {
		t.Errorf("child = %+v, want 2 spans with 50ns self time", c)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	l := tr.log()
	id := l.begin("x", 0, tr.newReq())
	l.end(id)
	if id != 0 || l != nil {
		t.Fatalf("nil tracer returned span %d, log %v", id, l)
	}
}
