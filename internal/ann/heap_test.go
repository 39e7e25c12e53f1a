package ann

import (
	"math"
	"testing"
)

// TestScratchStampWrap: when the walk stamp wraps, marks left by walks
// 2^32 stamps ago must not read as visited, so the array is cleared.
func TestScratchStampWrap(t *testing.T) {
	s := newScratch(3, 1)
	s.visited[2] = 1 // left by the walk that ran with stamp 1
	s.stamp = math.MaxUint32
	s.newWalk()
	if s.stamp != 1 {
		t.Fatalf("stamp after wrap = %d, want 1", s.stamp)
	}
	for id, v := range s.visited {
		if v == s.stamp {
			t.Fatalf("node %d reads as visited at the start of a walk", id)
		}
	}
}
