package forest

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"spbtree/internal/core"
	"spbtree/internal/metric"
	"spbtree/internal/page"
	"spbtree/internal/sfc"
)

func vectors(n, dim int, seed int64, base uint64) []metric.Object {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]metric.Object, n)
	for i := range objs {
		coords := make([]float64, dim)
		for j := range coords {
			coords[j] = rng.Float64()
		}
		objs[i] = metric.NewVector(base+uint64(i), coords)
	}
	return objs
}

func bfRange(objs []metric.Object, q metric.Object, r float64, d metric.DistanceFunc) int {
	n := 0
	for _, o := range objs {
		if d.Distance(q, o) <= r {
			n++
		}
	}
	return n
}

func bfKNN(objs []metric.Object, q metric.Object, k int, d metric.DistanceFunc) []float64 {
	ds := make([]float64, len(objs))
	for i, o := range objs {
		ds[i] = d.Distance(q, o)
	}
	sort.Float64s(ds)
	if k > len(ds) {
		k = len(ds)
	}
	return ds[:k]
}

func TestForestMatchesBruteForce(t *testing.T) {
	objs := vectors(900, 5, 1, 0)
	dist := metric.L2(5)
	f, err := Build(objs, Options{
		Tree:   core.Options{Distance: dist, Codec: metric.VectorCodec{Dim: 5}, Seed: 2},
		Shards: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 900 || len(f.Shards()) != 5 {
		t.Fatalf("Len=%d shards=%d", f.Len(), len(f.Shards()))
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		q := objs[rng.Intn(len(objs))]
		r := 0.1 + 0.2*rng.Float64()
		got, err := f.RangeQuery(q, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != bfRange(objs, q, r, dist) {
			t.Fatalf("range mismatch at r=%v", r)
		}
		k := 1 + rng.Intn(16)
		nn, err := f.KNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		want := bfKNN(objs, q, k, dist)
		if len(nn) != len(want) {
			t.Fatalf("kNN returned %d, want %d", len(nn), len(want))
		}
		for i := range nn {
			if math.Abs(nn[i].Dist-want[i]) > 1e-9 {
				t.Fatalf("kNN dist[%d] = %v, want %v", i, nn[i].Dist, want[i])
			}
		}
	}
}

func TestForestJoin(t *testing.T) {
	Q := vectors(300, 4, 4, 0)
	O := vectors(350, 4, 5, 100000)
	dist := metric.L2(4)
	fq, err := Build(Q, Options{
		Tree:   core.Options{Distance: dist, Codec: metric.VectorCodec{Dim: 4}, Curve: sfc.ZOrder, Seed: 2},
		Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	fo, err := fq.BuildPartner(O, Options{
		Tree:   core.Options{Distance: dist, Codec: metric.VectorCodec{Dim: 4}},
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	eps := 0.07 * dist.MaxDistance()
	got, qs, err := Join(context.Background(), fq, fo, eps)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, q := range Q {
		for _, o := range O {
			if dist.Distance(q, o) <= eps {
				want++
			}
		}
	}
	if len(got) != want {
		t.Fatalf("forest join: %d pairs, want %d", len(got), want)
	}
	// The stats are the shard pairs' counters added up.
	var sum core.QueryStats
	for _, tq := range fq.Shards() {
		for _, to := range fo.Shards() {
			_, st, err := core.Join(context.Background(), tq, to, eps)
			if err != nil {
				t.Fatal(err)
			}
			sum.Merge(st)
		}
	}
	if qs.Op != core.OpJoin || qs.Results != want || qs.Compdists != sum.Compdists ||
		qs.Verified != sum.Verified || qs.EntriesScanned != sum.EntriesScanned || qs.Elapsed <= 0 {
		t.Fatalf("forest join stats %+v, want the shard pairs' sum %+v and %d results", qs, sum, want)
	}
	seen := map[[2]uint64]bool{}
	for _, p := range got {
		key := [2]uint64{p.Q.ID(), p.O.ID()}
		if seen[key] {
			t.Fatalf("duplicate pair %v", key)
		}
		seen[key] = true
	}
}

func TestForestParallelismLimit(t *testing.T) {
	objs := vectors(400, 3, 6, 0)
	dist := metric.L2(3)
	f, err := Build(objs, Options{
		Tree:     core.Options{Distance: dist, Codec: metric.VectorCodec{Dim: 3}},
		Shards:   8,
		Parallel: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.RangeQuery(objs[0], 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != bfRange(objs, objs[0], 0.3, dist) {
		t.Fatal("range mismatch under bounded parallelism")
	}
}

func TestForestStatsAggregate(t *testing.T) {
	objs := vectors(600, 4, 7, 0)
	f, err := Build(objs, Options{
		Tree:   core.Options{Distance: metric.L2(4), Codec: metric.VectorCodec{Dim: 4}},
		Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.ResetStats()
	if _, err := f.KNN(objs[0], 8); err != nil {
		t.Fatal(err)
	}
	st := f.TakeStats()
	if st.PageAccesses == 0 || st.DistanceComputations == 0 {
		t.Errorf("aggregate stats: %+v", st)
	}
}

func TestForestValidation(t *testing.T) {
	objs := vectors(10, 2, 8, 0)
	opts := core.Options{Distance: metric.L2(2), Codec: metric.VectorCodec{Dim: 2}}
	if _, err := Build(objs, Options{Tree: opts, Shards: -1}); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, err := Build(objs, Options{Tree: opts, Shards: 100}); err == nil {
		t.Error("more shards than objects accepted")
	}
	withStore := opts
	withStore.IndexStore = page.NewMemStore()
	if _, err := Build(objs, Options{Tree: withStore, Shards: 2}); err == nil {
		t.Error("explicit store accepted")
	}
}
