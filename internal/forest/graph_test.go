package forest

import (
	"context"
	"math"
	"testing"

	"spbtree/internal/core"
	"spbtree/internal/metric"
	"spbtree/internal/recall"
)

// TestForestGraphKNN pins the scattered graph tier end to end: BuildGraph
// reaches every shard, an OpKNNGraph Query merges the per-shard beams with recall@10
// at least 0.9 against the forest's exact answer, and the stats gather
// carries the graph counters.
func TestForestGraphKNN(t *testing.T) {
	objs := vectors(1200, 5, 21, 0)
	dist := metric.L2(5)
	f, err := Build(objs, Options{
		Tree:   core.Options{Distance: dist, Codec: metric.VectorCodec{Dim: 5}, Seed: 2},
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.BuildGraph(core.GraphOptions{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	for i, tr := range f.Shards() {
		if !tr.HasGraph() {
			t.Fatalf("shard %d has no graph after Forest.BuildGraph", i)
		}
	}
	const k = 10
	var recalls []float64
	for qi := 0; qi < 20; qi++ {
		q := objs[qi*37]
		exact, err := f.KNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		got, qs, err := f.Query(context.Background(), core.Query{Op: core.OpKNNGraph, Q: q, K: k, Timed: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("query %d: got %d results, want %d", qi, len(got), k)
		}
		for i := 1; i < len(got); i++ {
			if got[i].Dist < got[i-1].Dist {
				t.Fatalf("query %d: merged results out of order", qi)
			}
		}
		if qs.GraphHops == 0 || qs.GraphCandidates == 0 {
			t.Fatalf("query %d: graph counters missing from gathered stats: %+v", qi, qs)
		}
		recalls = append(recalls, recall.AtK(resultIDs(exact), resultIDs(got), k))
	}
	if m := recall.Mean(recalls); m < 0.9 {
		t.Fatalf("forest graph recall@%d = %.3f, want >= 0.90", k, m)
	}
}

// TestForestGraphFallback pins the per-shard degradation contract: shards
// with no live graph (ErrNoGraph) answer through the exact path, and the
// merged result is still correct.
func TestForestGraphFallback(t *testing.T) {
	objs := vectors(600, 4, 22, 0)
	dist := metric.L2(4)
	f, err := Build(objs, Options{
		Tree:   core.Options{Distance: dist, Codec: metric.VectorCodec{Dim: 4}, Seed: 3},
		Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}

	// No shard has a graph: the graph query must equal exact KNN bit for bit.
	q := objs[5]
	exact, err := f.KNN(q, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, qs, err := f.Query(context.Background(), core.Query{Op: core.OpKNNGraph, Q: q, K: 8, Timed: true})
	if err != nil {
		t.Fatal(err)
	}
	if qs.GraphHops != 0 {
		t.Fatalf("GraphHops = %d with no graphs built", qs.GraphHops)
	}
	sameResultList(t, "all-fallback", exact, got)

	// Graph on one shard only: mixed answering still merges correctly.
	if err := f.Shards()[0].BuildGraph(core.GraphOptions{Seed: 9}); err != nil {
		t.Fatal(err)
	}
	got, qs, err = f.Query(context.Background(), core.Query{Op: core.OpKNNGraph, Q: q, K: 8, Search: core.SearchOptions{Ef: 256}, Timed: true})
	if err != nil {
		t.Fatal(err)
	}
	if qs.GraphHops == 0 {
		t.Fatal("graph-capable shard did not answer from its graph")
	}
	if len(got) != 8 {
		t.Fatalf("mixed scatter returned %d results, want 8", len(got))
	}
}

func resultIDs(rs []core.Result) []uint64 {
	ids := make([]uint64, len(rs))
	for i, r := range rs {
		ids[i] = r.Object.ID()
	}
	return ids
}

func sameResultList(t *testing.T, label string, a, b []core.Result) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d results vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Object.ID() != b[i].Object.ID() || math.Abs(a[i].Dist-b[i].Dist) > 1e-12 {
			t.Fatalf("%s: result %d diverges: (%d, %v) vs (%d, %v)",
				label, i, a[i].Object.ID(), a[i].Dist, b[i].Object.ID(), b[i].Dist)
		}
	}
}
