package core

import (
	"context"
	"sync"
	"testing"

	"spbtree/internal/metric"
	"spbtree/internal/obs"
	"spbtree/internal/sfc"
)

// TestQueryStatsExactSmallTree pins the exact, hand-computed cost of a range
// query over a tree small enough to reason about on paper: 8 objects fit one
// B+-tree leaf (255-entry capacity) and one RAF page, so a cold full-space
// range query reads exactly 2 physical pages (the root leaf + the RAF page),
// and with Lemma 2 disabled computes exactly |P| + 8 distances (the pivot
// mapping of q plus one verification per object).
func TestQueryStatsExactSmallTree(t *testing.T) {
	objs := vectorSet(8, 3, 7)
	dist := metric.L2(3)
	tree, err := Build(objs, Options{
		Distance: dist, Codec: metric.VectorCodec{Dim: 3},
		NumPivots: 2, DisableLemma2: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := metric.NewVector(100, []float64{0.5, 0.5, 0.5})

	tree.ResetStats()
	res, qs, err := tree.Query(context.Background(), Query{Op: OpRange, Q: q, Radius: dist.MaxDistance(), Timed: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 8 || qs.Results != 8 {
		t.Fatalf("want all 8 objects, got %d (stats %d)", len(res), qs.Results)
	}
	if qs.NodesRead != 1 {
		t.Errorf("NodesRead = %d, want 1 (single-leaf tree)", qs.NodesRead)
	}
	if qs.IndexPA != 1 || qs.DataPA != 1 {
		t.Errorf("PA = %d index + %d data, want 1 + 1", qs.IndexPA, qs.DataPA)
	}
	if qs.EntriesScanned != 8 || qs.Verified != 8 || qs.Discarded != 0 {
		t.Errorf("scanned/verified/discarded = %d/%d/%d, want 8/8/0",
			qs.EntriesScanned, qs.Verified, qs.Discarded)
	}
	if want := int64(2 + 8); qs.Compdists != want {
		t.Errorf("Compdists = %d, want %d (|P| + one per object)", qs.Compdists, want)
	}
	st := tree.TakeStats()
	if qs.Compdists != st.DistanceComputations || qs.PageAccesses() != st.PageAccesses {
		t.Errorf("per-query (%d cd, %d PA) does not reconcile with lifetime (%d cd, %d PA)",
			qs.Compdists, qs.PageAccesses(), st.DistanceComputations, st.PageAccesses)
	}

	// Warm repeat: both pages are cached, so PA must be zero and the reads
	// must surface as cache hits instead.
	tree.WarmReset()
	_, qs2, err := tree.Query(context.Background(), Query{Op: OpRange, Q: q, Radius: dist.MaxDistance(), Timed: true})
	if err != nil {
		t.Fatal(err)
	}
	if qs2.PageAccesses() != 0 {
		t.Errorf("warm PA = %d, want 0", qs2.PageAccesses())
	}
	if qs2.IndexCacheHits < 1 || qs2.DataCacheHits < 1 {
		t.Errorf("warm cache hits = %d index, %d data; want ≥1 each", qs2.IndexCacheHits, qs2.DataCacheHits)
	}
	if st2 := tree.TakeStats(); st2.PageAccesses != 0 {
		t.Errorf("warm lifetime PA = %d, want 0 (cache hits must not count)", st2.PageAccesses)
	}
}

// TestQueryStatsReconcile checks, on a larger tree, that every WithStats
// entry point's Compdists and PA totals equal the tree-lifetime counter
// deltas measured around the query — the acceptance identity that holds
// whenever queries do not run concurrently.
func TestQueryStatsReconcile(t *testing.T) {
	objs := vectorSet(600, 4, 3)
	dist := metric.L2(4)
	tree, err := Build(objs, Options{
		Distance: dist, Codec: metric.VectorCodec{Dim: 4}, NumPivots: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := metric.NewVector(9000, []float64{0.4, 0.6, 0.5, 0.3})

	check := func(name string, qs QueryStats) {
		t.Helper()
		st := tree.TakeStats()
		if qs.Compdists != st.DistanceComputations {
			t.Errorf("%s: Compdists %d != lifetime %d", name, qs.Compdists, st.DistanceComputations)
		}
		if qs.IndexPA != st.IndexPageAccesses || qs.DataPA != st.DataPageAccesses {
			t.Errorf("%s: PA %d+%d != lifetime %d+%d", name,
				qs.IndexPA, qs.DataPA, st.IndexPageAccesses, st.DataPageAccesses)
		}
		if st.PageAccesses != st.IndexPageAccesses+st.DataPageAccesses {
			t.Errorf("%s: lifetime PA %d != index %d + data %d", name,
				st.PageAccesses, st.IndexPageAccesses, st.DataPageAccesses)
		}
		if qs.Elapsed <= 0 {
			t.Errorf("%s: Elapsed not set", name)
		}
		if qs.FilterTime+qs.PlanTime+qs.VerifyTime > qs.Elapsed {
			t.Errorf("%s: stage times exceed Elapsed", name)
		}
	}

	tree.ResetStats()
	_, qs, err := tree.Query(context.Background(), Query{Op: OpRange, Q: q, Radius: 0.12 * dist.MaxDistance(), Timed: true})
	if err != nil {
		t.Fatal(err)
	}
	if qs.Op != OpRange {
		t.Errorf("Op = %q, want %q", qs.Op, OpRange)
	}
	check("range", qs)

	tree.ResetStats()
	res, qs, err := tree.Query(context.Background(), Query{Op: OpKNN, Q: q, K: 10, Timed: true})
	if err != nil {
		t.Fatal(err)
	}
	if qs.Op != OpKNN || qs.Results != len(res) {
		t.Errorf("kNN Op/Results = %q/%d, want %q/%d", qs.Op, qs.Results, OpKNN, len(res))
	}
	if qs.HeapPushes == 0 || qs.NodesRead == 0 {
		t.Errorf("kNN HeapPushes=%d NodesRead=%d, want both > 0", qs.HeapPushes, qs.NodesRead)
	}
	check("knn", qs)

	tree.ResetStats()
	_, qs, err = tree.Query(context.Background(), Query{Op: OpKNNApprox, Q: q, K: 10, MaxVerify: 25, Timed: true})
	if err != nil {
		t.Fatal(err)
	}
	if qs.Op != OpKNNApprox {
		t.Errorf("Op = %q, want %q", qs.Op, OpKNNApprox)
	}
	if qs.Verified > 25 {
		t.Errorf("approx Verified = %d, exceeds budget 25", qs.Verified)
	}
	check("knn_approx", qs)
}

// TestJoinStatsReconcile checks the two-tree (and self-join) PA aggregation.
func TestJoinStatsReconcile(t *testing.T) {
	dist := metric.L2(3)
	codec := metric.VectorCodec{Dim: 3}
	Q := vectorSet(120, 3, 5)
	O := vectorSet(150, 3, 6)
	for i, o := range O {
		o.(*metric.Vector).Id = uint64(5000 + i)
	}
	tq, to := buildJoinPair(t, Q, O, dist, codec, 3)
	eps := 0.08 * dist.MaxDistance()

	tq.ResetStats()
	to.ResetStats()
	pairs, qs, err := JoinWithStats(tq, to, eps)
	if err != nil {
		t.Fatal(err)
	}
	if qs.Op != OpJoin || qs.Results != len(pairs) {
		t.Errorf("Op/Results = %q/%d, want %q/%d", qs.Op, qs.Results, OpJoin, len(pairs))
	}
	stq, sto := tq.TakeStats(), to.TakeStats()
	if got, want := qs.Compdists, stq.DistanceComputations+sto.DistanceComputations; got != want {
		t.Errorf("Compdists %d != lifetime sum %d", got, want)
	}
	if got, want := qs.PageAccesses(), stq.PageAccesses+sto.PageAccesses; got != want {
		t.Errorf("PA %d != lifetime sum %d", got, want)
	}
	if qs.EntriesScanned != int64(len(Q)+len(O)) {
		t.Errorf("EntriesScanned = %d, want %d (every element loaded once)",
			qs.EntriesScanned, len(Q)+len(O))
	}

	// Self-join: both sides are the same store; deltas must not double.
	tq.ResetStats()
	_, qs, err = JoinWithStats(tq, tq, eps)
	if err != nil {
		t.Fatal(err)
	}
	st := tq.TakeStats()
	if qs.Compdists != st.DistanceComputations || qs.PageAccesses() != st.PageAccesses {
		t.Errorf("self-join (%d cd, %d PA) != lifetime (%d cd, %d PA)",
			qs.Compdists, qs.PageAccesses(), st.DistanceComputations, st.PageAccesses)
	}
}

// countingTracer tallies events per kind; used to cross-check the tracer
// stream against QueryStats counters.
type countingTracer struct {
	mu     sync.Mutex
	counts map[obs.EventKind]int64
}

func (c *countingTracer) Event(e obs.Event) {
	c.mu.Lock()
	c.counts[e.Kind]++
	c.mu.Unlock()
}

// TestTracerMatchesQueryStats installs a tracer and checks the structured
// event stream agrees with the per-query counters: one EvNodeRead per node
// decoded, one EvRecordRead per object fetched, and cache misses equal to
// physical page reads.
func TestTracerMatchesQueryStats(t *testing.T) {
	objs := vectorSet(400, 3, 11)
	dist := metric.L2(3)
	tree, err := Build(objs, Options{
		Distance: dist, Codec: metric.VectorCodec{Dim: 3}, NumPivots: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := &countingTracer{counts: map[obs.EventKind]int64{}}
	tree.SetTracer(tr)
	defer tree.SetTracer(nil)

	tree.ResetStats()
	q := metric.NewVector(9000, []float64{0.5, 0.4, 0.6})
	_, qs, err := tree.Query(context.Background(), Query{Op: OpKNN, Q: q, K: 5, Timed: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.counts[obs.EvNodeRead]; got != qs.NodesRead {
		t.Errorf("EvNodeRead = %d, want NodesRead %d", got, qs.NodesRead)
	}
	if got := tr.counts[obs.EvRecordRead]; got != qs.Verified+qs.Lemma2Included {
		t.Errorf("EvRecordRead = %d, want %d objects fetched", got, qs.Verified+qs.Lemma2Included)
	}
	if got := tr.counts[obs.EvPageRead]; got != qs.PageAccesses() {
		t.Errorf("EvPageRead = %d, want PA %d", got, qs.PageAccesses())
	}
	if got := tr.counts[obs.EvCacheMiss]; got != qs.PageAccesses() {
		t.Errorf("EvCacheMiss = %d, want PA %d (miss == physical read)", got, qs.PageAccesses())
	}
	if got := tr.counts[obs.EvCacheHit]; got != qs.IndexCacheHits+qs.DataCacheHits {
		t.Errorf("EvCacheHit = %d, want %d", got, qs.IndexCacheHits+qs.DataCacheHits)
	}
}

// TestAggregateMetrics checks the per-tree registry accumulates every entry
// point (plain and WithStats) under its operation name.
func TestAggregateMetrics(t *testing.T) {
	objs := vectorSet(200, 3, 13)
	dist := metric.L2(3)
	tree, err := Build(objs, Options{
		Distance: dist, Codec: metric.VectorCodec{Dim: 3}, NumPivots: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := metric.NewVector(9000, []float64{0.5, 0.5, 0.5})
	if _, err := tree.KNN(q, 3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tree.Query(context.Background(), Query{Op: OpKNN, Q: q, K: 3, Timed: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.RangeQuery(q, 0.1); err != nil {
		t.Fatal(err)
	}
	snap := tree.Metrics().Snapshot()
	if got := snap[OpKNN].Queries; got != 2 {
		t.Errorf("knn queries = %d, want 2", got)
	}
	if got := snap[OpRange].Queries; got != 1 {
		t.Errorf("range queries = %d, want 1", got)
	}
	if snap[OpKNN].Compdists == 0 || snap[OpKNN].Latency.Count != 2 {
		t.Errorf("knn aggregate compdists=%d latency count=%d, want >0 and 2",
			snap[OpKNN].Compdists, snap[OpKNN].Latency.Count)
	}
	if _, ok := snap[OpJoin]; ok {
		t.Errorf("join metrics present without any join")
	}
}

// BenchmarkKNN measures the plain kNN entry point — always-on
// instrumentation (counter increments, I/O snapshots, aggregate recording)
// included. Compare with BenchmarkKNNWithStats for the per-stage-clock
// overhead; the two should stay within a few percent of each other.
func BenchmarkKNN(b *testing.B) {
	tree, q := benchTree(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.KNN(q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKNNWithStats measures the same query with per-stage wall clocks
// enabled.
func BenchmarkKNNWithStats(b *testing.B) {
	tree, q := benchTree(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tree.Query(context.Background(), Query{Op: OpKNN, Q: q, K: 10, Timed: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchTree(b *testing.B) (*Tree, metric.Object) {
	b.Helper()
	objs := vectorSet(2000, 4, 17)
	tree, err := Build(objs, Options{
		Distance: metric.L2(4), Codec: metric.VectorCodec{Dim: 4},
		NumPivots: 3, Curve: sfc.Hilbert,
	})
	if err != nil {
		b.Fatal(err)
	}
	return tree, metric.NewVector(90000, []float64{0.5, 0.4, 0.6, 0.5})
}
