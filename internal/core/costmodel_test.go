package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"spbtree/internal/metric"
	"spbtree/internal/sfc"
)

// accuracy is the paper's metric: 1 − |actual − estimated| / actual.
func accuracy(actual, estimated float64) float64 {
	if actual == 0 {
		return 0
	}
	return 1 - math.Abs(actual-estimated)/actual
}

func TestRangeCostModelAccuracy(t *testing.T) {
	objs := vectorSet(2000, 6, 41)
	dist := metric.L2(6)
	tree, err := Build(objs, Options{
		Distance: dist, Codec: metric.VectorCodec{Dim: 6}, NumPivots: 3, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	var accEDC, accEPA float64
	const trials = 30
	r := 0.08 * dist.MaxDistance()
	for i := 0; i < trials; i++ {
		q := objs[rng.Intn(len(objs))]
		est, err := tree.EstimateRange(q, r)
		if err != nil {
			t.Fatal(err)
		}
		tree.ResetStats()
		if _, err := tree.RangeQuery(q, r); err != nil {
			t.Fatal(err)
		}
		st := tree.TakeStats()
		accEDC += accuracy(float64(st.DistanceComputations), est.EDC)
		accEPA += accuracy(float64(st.PageAccesses), est.EPA)
	}
	accEDC /= trials
	accEPA /= trials
	// The paper reports >80% average accuracy (Fig. 15); demand a sane floor.
	if accEDC < 0.6 {
		t.Errorf("range EDC accuracy %.2f too low", accEDC)
	}
	if accEPA < 0.5 {
		t.Errorf("range EPA accuracy %.2f too low", accEPA)
	}
}

func TestKNNCostModelAccuracy(t *testing.T) {
	objs := vectorSet(2000, 6, 43)
	dist := metric.L2(6)
	tree, err := Build(objs, Options{
		Distance: dist, Codec: metric.VectorCodec{Dim: 6}, NumPivots: 3, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(44))
	var accEDC float64
	var estRadii, actRadii float64
	const trials = 30
	for i := 0; i < trials; i++ {
		q := objs[rng.Intn(len(objs))]
		est, err := tree.EstimateKNN(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		tree.ResetStats()
		res, err := tree.KNN(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		st := tree.TakeStats()
		accEDC += accuracy(float64(st.DistanceComputations), est.EDC)
		estRadii += est.Radius
		actRadii += res[len(res)-1].Dist
	}
	accEDC /= trials
	if accEDC < 0.3 {
		t.Errorf("kNN EDC accuracy %.2f too low", accEDC)
	}
	// eND_k should be within a small factor of the real k-NN distance.
	ratio := estRadii / actRadii
	if ratio < 0.3 || ratio > 4 {
		t.Errorf("eND_k estimate off by factor %.2f", ratio)
	}
}

func TestJoinCostModel(t *testing.T) {
	Q := vectorSet(400, 4, 45)
	O := vectorSet(400, 4, 46)
	for i, o := range O {
		o.(*metric.Vector).Id = uint64(10000 + i)
	}
	dist := metric.L2(4)
	tq, to := buildJoinPair(t, Q, O, dist, metric.VectorCodec{Dim: 4}, 3)
	eps := 0.06 * dist.MaxDistance()
	est, err := EstimateJoin(tq, to, eps)
	if err != nil {
		t.Fatal(err)
	}
	tq.ResetStats()
	to.ResetStats()
	if _, _, err := Join(context.Background(), tq, to, eps); err != nil {
		t.Fatal(err)
	}
	actualCD := float64(tq.TakeStats().DistanceComputations + to.TakeStats().DistanceComputations)
	actualPA := float64(tq.idxCache.Stats().Accesses() + to.idxCache.Stats().Accesses() +
		tq.dataCache.Stats().Accesses() + to.dataCache.Stats().Accesses())
	if a := accuracy(actualCD, est.EDC); a < 0.4 {
		t.Errorf("join EDC accuracy %.2f (actual %v est %v)", a, actualCD, est.EDC)
	}
	if a := accuracy(actualPA, est.EPA); a < 0.4 {
		t.Errorf("join EPA accuracy %.2f (actual %v est %v)", a, actualPA, est.EPA)
	}
}

func TestEstimateMonotoneInRadius(t *testing.T) {
	objs := vectorSet(800, 5, 47)
	dist := metric.L2(5)
	tree, err := Build(objs, Options{Distance: dist, Codec: metric.VectorCodec{Dim: 5}, NumPivots: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := objs[0]
	prev := -1.0
	for _, frac := range []float64{0.02, 0.05, 0.1, 0.2, 0.4} {
		est, err := tree.EstimateRange(q, frac*dist.MaxDistance())
		if err != nil {
			t.Fatal(err)
		}
		if est.EDC < prev {
			t.Errorf("EDC decreased at r=%v", frac)
		}
		prev = est.EDC
	}
	// At r = d+ the region covers everything: EDC ≈ |P| + |O|.
	est, err := tree.EstimateRange(q, dist.MaxDistance())
	if err != nil {
		t.Fatal(err)
	}
	if est.EDC < float64(len(objs)) {
		t.Errorf("EDC at full radius %v < |O|", est.EDC)
	}
}

func TestEstimateDoesNotPerturbCounters(t *testing.T) {
	objs := vectorSet(300, 4, 48)
	tree, err := Build(objs, Options{Distance: metric.L2(4), Codec: metric.VectorCodec{Dim: 4}, NumPivots: 3})
	if err != nil {
		t.Fatal(err)
	}
	tree.ResetStats()
	if _, err := tree.EstimateRange(objs[0], 0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.EstimateKNN(objs[0], 4); err != nil {
		t.Fatal(err)
	}
	if st := tree.TakeStats(); st.DistanceComputations != 0 {
		t.Errorf("estimation counted %d distance computations", st.DistanceComputations)
	}
}

func TestEstimateAfterMutationRefreshes(t *testing.T) {
	objs := vectorSet(300, 4, 49)
	tree, err := Build(objs[:200], Options{Distance: metric.L2(4), Codec: metric.VectorCodec{Dim: 4}, NumPivots: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs[200:] {
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	// The box snapshot is stale; estimation must refresh it, not crash.
	est, err := tree.EstimateRange(objs[0], 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if est.EDC <= 0 {
		t.Errorf("EDC = %v after refresh", est.EDC)
	}
}

func TestMeasureHelper(t *testing.T) {
	objs := vectorSet(200, 4, 50)
	tree, err := Build(objs, Options{Distance: metric.L2(4), Codec: metric.VectorCodec{Dim: 4}, NumPivots: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := tree.Measure(func() error {
		_, err := tree.KNN(objs[0], 4)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Elapsed <= 0 || st.PageAccesses == 0 || st.DistanceComputations == 0 {
		t.Errorf("Measure returned %+v", st)
	}
}

func TestStorageBytes(t *testing.T) {
	objs := vectorSet(500, 8, 51)
	tree, err := Build(objs, Options{Distance: metric.L2(8), Codec: metric.VectorCodec{Dim: 8}, NumPivots: 3})
	if err != nil {
		t.Fatal(err)
	}
	// 500 × 8-dim float64 vectors are ≈ 38 KB of payload; storage must cover
	// payload plus index but stay within a small multiple.
	sb := tree.StorageBytes()
	if sb < 38_000 || sb > 500_000 {
		t.Errorf("StorageBytes = %d", sb)
	}
}

func TestZOrderTreeEndToEnd(t *testing.T) {
	// The Table 4 comparison needs both curves fully working for search.
	objs := vectorSet(400, 5, 52)
	dist := metric.L2(5)
	for _, kind := range []sfc.Kind{sfc.Hilbert, sfc.ZOrder} {
		tree, err := Build(objs, Options{Distance: dist, Codec: metric.VectorCodec{Dim: 5}, NumPivots: 3, Curve: kind})
		if err != nil {
			t.Fatal(err)
		}
		q := objs[7]
		got, err := tree.KNN(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		want := bfKNNDists(objs, q, 8, dist)
		for i := range got {
			if math.Abs(got[i].Dist-want[i]) > 1e-9 {
				t.Fatalf("%v: dist[%d] = %v, want %v", kind, i, got[i].Dist, want[i])
			}
		}
	}
}

// TestPlanEstimateReconciliation is the estimator-accuracy regression gate:
// the EDC/EPA that EstimateRange and EstimateKNN report for a query — what
// spbtool explain prints and the forest's shard hints are ordered by — must
// reconcile with what the query then observes, within the tolerance of the §5
// accuracy tests, so silent cost-model drift fails here.
func TestPlanEstimateReconciliation(t *testing.T) {
	// Caching off (CacheSize < 0): EPA models uncached page accesses, and a
	// warm 2000-object tree fits the default caches entirely, observing 0.
	objs := vectorSet(2000, 6, 71)
	dist := metric.L2(6)
	tree, err := Build(objs, Options{
		Distance: dist, Codec: metric.VectorCodec{Dim: 6}, NumPivots: 3, Seed: 3,
		CacheSize: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	r := 0.08 * dist.MaxDistance()
	rng := rand.New(rand.NewSource(9))
	var accEDC, ratioEPA float64
	const trials = 30
	for i := 0; i < trials; i++ {
		q := objs[rng.Intn(len(objs))]
		est, err := tree.EstimateRange(q, r)
		if err != nil {
			t.Fatal(err)
		}
		_, qs, err := tree.Query(context.Background(), Query{Op: OpRange, Q: q, Radius: r, Timed: true})
		if err != nil {
			t.Fatal(err)
		}
		accEDC += accuracy(float64(qs.Compdists), est.EDC)
		if pa := float64(qs.PageAccesses()); pa > 0 {
			ratioEPA += est.EPA / pa
		}
	}
	accEDC /= trials
	ratioEPA /= trials
	if accEDC < 0.6 {
		t.Errorf("range EDC accuracy %.2f too low", accEDC)
	}
	// EPA models distinct page touches under ideal buffering; uncached
	// execution re-reads pages per block, so observed PA runs a small factor
	// above the prediction. Band the ratio rather than demanding equality:
	// drift to ~0 (model collapse) or past ~2 (model explosion) fails.
	if ratioEPA < 0.1 || ratioEPA > 2 {
		t.Errorf("range EPA/observed-PA ratio %.2f outside [0.1, 2]", ratioEPA)
	}

	// The kNN side first estimates its radius; demand the looser floor of
	// the §5 kNN accuracy test.
	var accKNN float64
	for i := 0; i < trials; i++ {
		q := objs[rng.Intn(len(objs))]
		est, err := tree.EstimateKNN(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		_, qs, err := tree.Query(context.Background(), Query{Op: OpKNN, Q: q, K: 8, Timed: true})
		if err != nil {
			t.Fatal(err)
		}
		accKNN += accuracy(float64(qs.Compdists), est.EDC)
	}
	accKNN /= trials
	if accKNN < 0.3 {
		t.Errorf("kNN EDC accuracy %.2f too low", accKNN)
	}
}
