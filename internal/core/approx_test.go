package core

import (
	"context"
	"testing"

	"spbtree/internal/metric"
	"spbtree/internal/recall"
)

// resultIDList projects a result list to its object IDs, the form the shared
// recall helper consumes.
func resultIDList(res []Result) []uint64 {
	ids := make([]uint64, len(res))
	for i, r := range res {
		ids[i] = r.Object.ID()
	}
	return ids
}

func TestKNNApproxFallsBackToExact(t *testing.T) {
	objs := vectorSet(300, 4, 95)
	dist := metric.L2(4)
	tree, err := Build(objs, Options{Distance: dist, Codec: metric.VectorCodec{Dim: 4}, NumPivots: 3})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := tree.KNN(objs[0], 8)
	if err != nil {
		t.Fatal(err)
	}
	viaZero, _, err := tree.Query(context.Background(), Query{Op: OpKNNApprox, Q: objs[0], K: 8, MaxVerify: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(viaZero) != len(exact) {
		t.Fatalf("budget<=0 not exact: %d vs %d", len(viaZero), len(exact))
	}
	for i := range exact {
		if exact[i].Dist != viaZero[i].Dist {
			t.Fatalf("budget<=0 differs at %d", i)
		}
	}
	// A huge budget is also exact.
	viaBig, _, err := tree.Query(context.Background(), Query{Op: OpKNNApprox, Q: objs[0], K: 8, MaxVerify: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if exact[i].Dist != viaBig[i].Dist {
			t.Fatalf("huge budget differs at %d", i)
		}
	}
}

func TestKNNApproxRecallAndBudget(t *testing.T) {
	objs := vectorSet(2000, 6, 96)
	dist := metric.L2(6)
	tree, err := Build(objs, Options{Distance: dist, Codec: metric.VectorCodec{Dim: 6}, NumPivots: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	const k = 10
	// Exact baselines are computed once and shared by every budget level,
	// scored through the one recall implementation (internal/recall).
	exactIDs := make([][]uint64, 20)
	for qi := range exactIDs {
		exact, err := tree.KNN(objs[qi*83], k)
		if err != nil {
			t.Fatal(err)
		}
		exactIDs[qi] = resultIDList(exact)
	}
	recallAt := func(budget int) (r float64, cd int64) {
		recalls := make([]float64, 0, len(exactIDs))
		var totalCD int64
		for qi := range exactIDs {
			tree.ResetStats()
			approx, _, err := tree.Query(context.Background(), Query{Op: OpKNNApprox, Q: objs[qi*83], K: k, MaxVerify: budget})
			if err != nil {
				t.Fatal(err)
			}
			totalCD += tree.TakeStats().DistanceComputations
			recalls = append(recalls, recall.AtK(exactIDs[qi], resultIDList(approx), k))
		}
		return recall.Mean(recalls), totalCD
	}
	rSmall, cdSmall := recallAt(2 * k)
	rBig, cdBig := recallAt(20 * k)
	if rBig < 0.95 {
		t.Errorf("recall at generous budget = %.2f", rBig)
	}
	if rSmall > rBig+1e-9 {
		t.Errorf("recall did not improve with budget: %.2f vs %.2f", rSmall, rBig)
	}
	if rSmall < 0.4 {
		t.Errorf("recall at tight budget = %.2f — MIND ordering should find most neighbors early", rSmall)
	}
	if cdSmall >= cdBig {
		t.Errorf("tight budget did not save computations: %d vs %d", cdSmall, cdBig)
	}
}

func TestKNNApproxNeverExceedsBudget(t *testing.T) {
	objs := vectorSet(800, 5, 97)
	dist := metric.L2(5)
	tree, err := Build(objs, Options{Distance: dist, Codec: metric.VectorCodec{Dim: 5}, NumPivots: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{1, 5, 25} {
		tree.ResetStats()
		if _, _, err := tree.Query(context.Background(), Query{Op: OpKNNApprox, Q: objs[3], K: 10, MaxVerify: budget}); err != nil {
			t.Fatal(err)
		}
		cd := tree.TakeStats().DistanceComputations
		// |P| mapping computations plus at most budget verifications.
		if max := int64(len(tree.Pivots()) + budget); cd > max {
			t.Errorf("budget %d: %d compdists > %d", budget, cd, max)
		}
	}
}
