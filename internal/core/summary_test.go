package core

import (
	"math"
	"math/rand"
	"testing"

	"spbtree/internal/metric"
)

// TestSummaryAndHints exercises the §15.4 shard-planning surface on a single
// tree: the summary box lower-bounds real distances, prunable hints are
// sound (a prunable shard really contributes nothing), and hints survive
// writes by withholding estimates rather than failing.
func TestSummaryAndHints(t *testing.T) {
	objs := vectorSet(800, 6, 71)
	dist := metric.L2(6)
	tree, err := Build(objs, Options{Distance: dist, Codec: metric.VectorCodec{Dim: 6}, NumPivots: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()

	s, err := tree.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if s.Count != len(objs) {
		t.Fatalf("summary count %d, want %d", s.Count, len(objs))
	}
	for i := range s.Lo {
		if s.Lo[i] > s.Hi[i] {
			t.Fatalf("pivot %d: inverted interval [%v, %v] on a full tree", i, s.Lo[i], s.Hi[i])
		}
	}

	// MinDist is a lower bound on the true nearest distance; for an indexed
	// query object the true distance is 0, so MinDist must be 0.
	h, err := tree.KNNHint(objs[5], 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.MinDist != 0 {
		t.Fatalf("KNNHint(indexed object).MinDist = %v, want 0", h.MinDist)
	}
	if !h.Estimated || h.EDC <= 0 {
		t.Fatalf("clean-model hint missing estimates: %+v", h)
	}

	// MinDist lower-bounds every query's true nearest distance.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		coords := make([]float64, 6)
		for j := range coords {
			coords[j] = 4 * rng.Float64() // often far outside the data cube
		}
		q := metric.NewVector(777000+uint64(trial), coords)
		h, err := tree.RangeHint(q, 0.05*dist.MaxDistance())
		if err != nil {
			t.Fatal(err)
		}
		res, err := tree.KNN(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if h.MinDist > res[0].Dist+1e-9 {
			t.Fatalf("MinDist %v exceeds true nearest %v", h.MinDist, res[0].Dist)
		}
		if h.Prunable {
			rr, err := tree.RangeQuery(q, 0.05*dist.MaxDistance())
			if err != nil {
				t.Fatal(err)
			}
			if len(rr) != 0 {
				t.Fatalf("prunable hint but range returned %d results", len(rr))
			}
		}
	}

	// Dirty model: hints stay available, estimates are withheld.
	if err := tree.Insert(metric.NewVector(900003, []float64{0.3, 0.3, 0.3, 0.3, 0.3, 0.3})); err != nil {
		t.Fatal(err)
	}
	h, err = tree.KNNHint(objs[5], 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Estimated {
		t.Fatal("dirty-model hint still claims estimates")
	}

	// Emptied tree: infinitely far, always prunable.
	few := vectorSet(4, 6, 73)
	empty, err := Build(few, Options{Distance: dist, Codec: metric.VectorCodec{Dim: 6}, NumPivots: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	for _, o := range few {
		if err := empty.Delete(o); err != nil {
			t.Fatal(err)
		}
	}
	eh, err := empty.RangeHint(objs[0], dist.MaxDistance())
	if err != nil {
		t.Fatal(err)
	}
	if !eh.Prunable || !math.IsInf(eh.MinDist, 1) {
		t.Fatalf("empty-tree hint: %+v", eh)
	}
}
