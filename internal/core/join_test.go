package core

import (
	"context"
	"math/rand"
	"testing"

	"spbtree/internal/metric"
	"spbtree/internal/sfc"
)

func bfJoin(Q, O []metric.Object, eps float64, d metric.DistanceFunc) map[[2]uint64]bool {
	out := map[[2]uint64]bool{}
	for _, q := range Q {
		for _, o := range O {
			if d.Distance(q, o) <= eps {
				out[[2]uint64{q.ID(), o.ID()}] = true
			}
		}
	}
	return out
}

func buildJoinPair(t *testing.T, Q, O []metric.Object, dist metric.DistanceFunc, codec metric.Codec, pivots int) (*Tree, *Tree) {
	t.Helper()
	tq, err := Build(Q, Options{
		Distance: dist, Codec: codec, NumPivots: pivots, Curve: sfc.ZOrder, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	to, err := Build(O, Options{
		Distance: dist, Codec: codec, Curve: sfc.ZOrder, ShareMapping: tq,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tq, to
}

func TestJoinMatchesBruteForceVectors(t *testing.T) {
	Q := vectorSet(200, 4, 21)
	O := vectorSet(250, 4, 22)
	// Re-ID O so pairs are unambiguous.
	for i, o := range O {
		v := o.(*metric.Vector)
		v.Id = uint64(10000 + i)
	}
	dist := metric.L2(4)
	tq, to := buildJoinPair(t, Q, O, dist, metric.VectorCodec{Dim: 4}, 3)
	for _, epsFrac := range []float64{0.02, 0.06, 0.10} {
		eps := epsFrac * dist.MaxDistance()
		got, err := Join(tq, to, eps)
		if err != nil {
			t.Fatal(err)
		}
		want := bfJoin(Q, O, eps, dist)
		gotSet := map[[2]uint64]bool{}
		for _, p := range got {
			key := [2]uint64{p.Q.ID(), p.O.ID()}
			if gotSet[key] {
				t.Fatalf("eps=%v: duplicate pair %v (Lemma 7 violated)", eps, key)
			}
			gotSet[key] = true
			if p.Dist > eps {
				t.Fatalf("pair %v at distance %v > eps %v", key, p.Dist, eps)
			}
		}
		if len(gotSet) != len(want) {
			t.Fatalf("eps=%v: got %d pairs, want %d", eps, len(gotSet), len(want))
		}
		for key := range want {
			if !gotSet[key] {
				t.Fatalf("eps=%v: missing pair %v", eps, key)
			}
		}
	}
}

func TestJoinMatchesBruteForceWords(t *testing.T) {
	Q := wordSet(150, 23)
	O := wordSet(180, 24)
	for i, o := range O {
		o.(*metric.Str).Id = uint64(10000 + i)
	}
	dist := metric.EditDistance{MaxLen: 24}
	tq, to := buildJoinPair(t, Q, O, dist, metric.StrCodec{}, 3)
	for _, eps := range []float64{1, 2, 3} {
		got, err := Join(tq, to, eps)
		if err != nil {
			t.Fatal(err)
		}
		want := bfJoin(Q, O, eps, dist)
		if len(got) != len(want) {
			t.Fatalf("eps=%v: got %d pairs, want %d", eps, len(got), len(want))
		}
	}
}

func TestSelfJoin(t *testing.T) {
	O := vectorSet(150, 3, 25)
	dist := metric.L2(3)
	tree, err := Build(O, Options{
		Distance: dist, Codec: metric.VectorCodec{Dim: 3}, NumPivots: 3, Curve: sfc.ZOrder,
	})
	if err != nil {
		t.Fatal(err)
	}
	eps := 0.05 * dist.MaxDistance()
	got, err := Join(tree, tree, eps)
	if err != nil {
		t.Fatal(err)
	}
	want := bfJoin(O, O, eps, dist) // includes self-pairs (q, q)
	if len(got) != len(want) {
		t.Fatalf("self-join: got %d pairs, want %d", len(got), len(want))
	}
}

func TestJoinRequiresZOrder(t *testing.T) {
	O := vectorSet(50, 3, 26)
	dist := metric.L2(3)
	hil, err := Build(O, Options{Distance: dist, Codec: metric.VectorCodec{Dim: 3}, NumPivots: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Join(hil, hil, 0.1); err == nil {
		t.Error("join over Hilbert trees accepted (Lemma 6 needs Z-order)")
	}
}

func TestJoinRequiresSharedMapping(t *testing.T) {
	A := vectorSet(60, 3, 27)
	B := vectorSet(60, 3, 28)
	dist := metric.L2(3)
	ta, err := Build(A, Options{Distance: dist, Codec: metric.VectorCodec{Dim: 3}, NumPivots: 2, Curve: sfc.ZOrder, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := Build(B, Options{Distance: dist, Codec: metric.VectorCodec{Dim: 3}, NumPivots: 2, Curve: sfc.ZOrder, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Join(ta, tb, 0.1); err == nil {
		t.Error("join across different pivot tables accepted")
	}
}

func TestJoinEpsilonZeroAndNegative(t *testing.T) {
	O := vectorSet(80, 3, 29)
	dist := metric.L2(3)
	tree, err := Build(O, Options{Distance: dist, Codec: metric.VectorCodec{Dim: 3}, NumPivots: 2, Curve: sfc.ZOrder})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Join(tree, tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := bfJoin(O, O, 0, dist)
	if len(got) != len(want) {
		t.Errorf("eps=0: got %d, want %d (self-pairs)", len(got), len(want))
	}
	if got, _ := Join(tree, tree, -1); got != nil {
		t.Errorf("negative eps returned %d pairs", len(got))
	}
}

func TestJoinScansEachTreeOnce(t *testing.T) {
	// SJA's selling point vs |Q| range queries: one merge pass. The page
	// reads must stay near the number of leaf+RAF pages, not |Q|×.
	Q := vectorSet(400, 4, 30)
	O := vectorSet(400, 4, 31)
	for i, o := range O {
		o.(*metric.Vector).Id = uint64(10000 + i)
	}
	dist := metric.L2(4)
	tq, to := buildJoinPair(t, Q, O, dist, metric.VectorCodec{Dim: 4}, 3)
	tq.ResetStats()
	to.ResetStats()
	if _, err := Join(tq, to, 0.03*dist.MaxDistance()); err != nil {
		t.Fatal(err)
	}
	paQ := tq.TakeStats().PageAccesses
	paO := to.TakeStats().PageAccesses
	budget := int64(tq.bpt.NumLeaves()+to.bpt.NumLeaves()) +
		int64(tq.raf.PagesUsed()+to.raf.PagesUsed()) +
		int64(2*tq.bpt.Height()+2*to.bpt.Height()) + 8
	if paQ+paO > budget {
		t.Errorf("join PA %d exceeds single-scan budget %d", paQ+paO, budget)
	}
}

func TestJoinListEviction(t *testing.T) {
	// After the merge the internal lists must have been pruned: run a join
	// over widely spread data with tiny eps and confirm it completes with
	// bounded memory by simply inspecting pair correctness (behavioural
	// proxy), plus a direct unit check of verifyJoin's eviction.
	tDummy := &Tree{delta: 1, exact: true, bits: 4, dPlus: 15}
	tDummy.dist = metric.NewCounter(metric.EditDistance{MaxLen: 15})
	tDummy.curve = sfc.New(sfc.ZOrder, 2, 4)
	list := []joinElem{
		{key: 1, maxRR: 2},  // stale once cur.key > 2
		{key: 5, maxRR: 90}, // stays
	}
	cur := joinElem{
		key: 10, minRR: 95, // no verification matches
		rrLo: sfc.Point{15, 15}, rrHi: sfc.Point{15, 15},
		cells: sfc.Point{0, 0},
	}
	sink := &joinSerial{ctx: context.Background(), t: tDummy, eps: 1, qs: &QueryStats{}}
	if err := sink.verifyJoin(cur, &list, false); err != nil {
		t.Fatal(err)
	}
	if len(sink.pairs) != 0 {
		t.Fatal("unexpected emit")
	}
	if len(list) != 1 || list[0].key != 5 {
		t.Errorf("eviction failed: %d entries left", len(list))
	}
}

func TestJoinSkewedSizes(t *testing.T) {
	Q := vectorSet(20, 3, 32)
	O := vectorSet(500, 3, 33)
	for i, o := range O {
		o.(*metric.Vector).Id = uint64(10000 + i)
	}
	dist := metric.L2(3)
	tq, to := buildJoinPair(t, Q, O, dist, metric.VectorCodec{Dim: 3}, 3)
	eps := 0.05 * dist.MaxDistance()
	got, err := Join(tq, to, eps)
	if err != nil {
		t.Fatal(err)
	}
	want := bfJoin(Q, O, eps, dist)
	if len(got) != len(want) {
		t.Fatalf("got %d pairs, want %d", len(got), len(want))
	}
	// Symmetry: swapping the roles yields the same pair count.
	rev, err := Join(to, tq, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(rev) != len(want) {
		t.Fatalf("reversed join got %d pairs, want %d", len(rev), len(want))
	}
}

func TestJoinDiscreteSignatures(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	_ = rng
	Q := sigSet(120, 35)
	O := sigSet(150, 36)
	for i, o := range O {
		o.(*metric.BitString).Id = uint64(10000 + i)
	}
	dist := metric.Hamming{Bytes: 8}
	tq, to := buildJoinPair(t, Q, O, dist, metric.BitStringCodec{Bytes: 8}, 3)
	for _, eps := range []float64{2, 5, 8} {
		got, err := Join(tq, to, eps)
		if err != nil {
			t.Fatal(err)
		}
		want := bfJoin(Q, O, eps, dist)
		if len(got) != len(want) {
			t.Fatalf("eps=%v: got %d pairs, want %d", eps, len(got), len(want))
		}
	}
}
