package cluster

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"spbtree/internal/core"
	"spbtree/internal/dataset"
	"spbtree/internal/metric"
)

// TestClusterAdaptiveVsFlat: the adaptive router (hint round, node pruning,
// staged bounded kNN) answers byte-identically to the flat scatter, before
// and after writes, and the staged plan is visible in the merged stats.
func TestClusterAdaptiveVsFlat(t *testing.T) {
	ds := dataset.Words(900, 41)
	tc := startCluster(t, ds, 4)
	ctx := context.Background()

	check := func(phase string, queries []metric.Object) {
		for qi, q := range queries {
			for _, r := range []float64{1, 2, 3} {
				tc.router.SetAdaptive(true)
				ares, aqs, err := tc.router.Query(ctx, core.Query{Op: core.OpRange, Q: q, Radius: r, Timed: true})
				if err != nil {
					t.Fatalf("%s adaptive range: %v", phase, err)
				}
				tc.router.SetAdaptive(false)
				fres, fqs, err := tc.router.Query(ctx, core.Query{Op: core.OpRange, Q: q, Radius: r, Timed: true})
				if err != nil {
					t.Fatalf("%s flat range: %v", phase, err)
				}
				sameResults(t, fmt.Sprintf("%s range q%d r=%v", phase, qi, r), ares, fres)
				if aqs.Plan.ShardsTotal != 4 {
					t.Fatalf("%s: adaptive range plan: %+v", phase, aqs.Plan)
				}
				if fqs.Plan.ShardsPruned != 0 {
					t.Fatalf("%s: flat range reports pruning: %+v", phase, fqs.Plan)
				}
			}
			for _, k := range []int{1, 5, 20} {
				tc.router.SetAdaptive(true)
				ares, aqs, err := tc.router.Query(ctx, core.Query{Op: core.OpKNN, Q: q, K: k, Timed: true})
				if err != nil {
					t.Fatalf("%s adaptive knn: %v", phase, err)
				}
				tc.router.SetAdaptive(false)
				fres, _, err := tc.router.Query(ctx, core.Query{Op: core.OpKNN, Q: q, K: k, Timed: true})
				if err != nil {
					t.Fatalf("%s flat knn: %v", phase, err)
				}
				sameResults(t, fmt.Sprintf("%s knn q%d k=%d", phase, qi, k), ares, fres)
				if !aqs.Plan.Staged || aqs.Plan.ShardsTotal != 4 {
					t.Fatalf("%s: adaptive kNN plan not staged: %+v", phase, aqs.Plan)
				}
			}
		}
	}

	queries := make([]metric.Object, 0, 5)
	for qi := 0; qi < 5; qi++ {
		queries = append(queries, tc.objs[(qi*131)%len(tc.objs)])
	}
	check("fresh", queries)

	// Writes must not break the equivalence: summaries stay conservative
	// (delta cells widen the boxes) and hints lose their cost estimates on a
	// dirty model but stay sound.
	extra := []metric.Object{
		metric.NewStr(200001, "zzyzzxva"),
		metric.NewStr(200002, "taquamon"),
		metric.NewStr(200003, "elsuforing"),
	}
	tc.router.SetAdaptive(true)
	for _, o := range extra {
		if err := tc.router.Insert(ctx, o); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	check("after-writes", append(queries, extra...))

	// The inserted objects are visible through the adaptive path.
	tc.router.SetAdaptive(true)
	res, _, err := tc.router.Query(ctx, core.Query{Op: core.OpRange, Q: extra[0], Radius: 0, Timed: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res {
		if r.Object.ID() == extra[0].ID() {
			found = true
		}
	}
	if !found {
		t.Fatal("inserted object invisible to adaptive range")
	}
}

// TestClusterRangePruningOverWire: a query provably outside every shard's
// summary box sends zero range RPCs — the hint round alone settles it — and
// still answers correctly (empty, like the flat scatter).
func TestClusterRangePruningOverWire(t *testing.T) {
	ds := dataset.Color(600, 43)
	tc := startCluster(t, ds, 4)
	ctx := context.Background()

	var rangeRPCs, hintRPCs atomic.Int64
	for _, n := range tc.nodes {
		n.OnRequest = func(kind byte) {
			switch kind {
			case kRange:
				rangeRPCs.Add(1)
			case kHint:
				hintRPCs.Add(1)
			}
		}
	}

	// Color vectors live near the unit cube; a query at 50·1⃗ with a tiny
	// radius provably misses every shard.
	far := make([]float64, 16)
	for i := range far {
		far[i] = 50
	}
	q := metric.NewVector(990001, far)
	res, qs, err := tc.router.Query(ctx, core.Query{Op: core.OpRange, Q: q, Radius: 0.01, Timed: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("far query returned %d results", len(res))
	}
	if qs.Plan.ShardsPruned != 4 || qs.Plan.ShardsTotal != 4 {
		t.Fatalf("expected all 4 shards pruned: %+v", qs.Plan)
	}
	if got := rangeRPCs.Load(); got != 0 {
		t.Fatalf("pruned-out query still sent %d range RPCs", got)
	}
	if hintRPCs.Load() == 0 {
		t.Fatal("no hint RPCs observed; adaptive path did not engage")
	}
	if qs.Compdists != 0 {
		t.Fatalf("pruned-out query still computed %d distances", qs.Compdists)
	}

	// The flat scatter visits every node and agrees on the answer.
	tc.router.SetAdaptive(false)
	fres, _, err := tc.router.Query(ctx, core.Query{Op: core.OpRange, Q: q, Radius: 0.01, Timed: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(fres) != 0 {
		t.Fatalf("flat scatter returned %d results", len(fres))
	}
	if rangeRPCs.Load() == 0 {
		t.Fatal("flat scatter sent no range RPCs")
	}
}

// TestClusterStagedMatchesForest: the staged cluster kNN must reproduce the
// local adaptive forest's answers AND its work counters — the cluster visits
// shards in the same order with the same bound, so compdists match exactly.
func TestClusterStagedMatchesForest(t *testing.T) {
	ds := dataset.Color(600, 47)
	tc := startCluster(t, ds, 4)
	ctx := context.Background()
	for qi := 0; qi < 6; qi++ {
		q := tc.objs[(qi*89)%len(tc.objs)]
		got, gotStats, err := tc.router.Query(ctx, core.Query{Op: core.OpKNN, Q: q, K: 10, Timed: true})
		if err != nil {
			t.Fatalf("cluster knn: %v", err)
		}
		want, wantStats, err := tc.ref.Query(ctx, core.Query{Op: core.OpKNN, Q: q, K: 10, Timed: true})
		if err != nil {
			t.Fatalf("forest knn: %v", err)
		}
		sameResults(t, fmt.Sprintf("staged knn q%d", qi), got, want)
		if !gotStats.Plan.Staged || !wantStats.Plan.Staged {
			t.Fatalf("q%d: staging off (cluster %v, forest %v)",
				qi, gotStats.Plan.Staged, wantStats.Plan.Staged)
		}
		if gotStats.Plan.FirstShard != wantStats.Plan.FirstShard {
			t.Fatalf("q%d: first shard %d vs forest %d",
				qi, gotStats.Plan.FirstShard, wantStats.Plan.FirstShard)
		}
		if gotStats.Compdists != wantStats.Compdists {
			t.Fatalf("q%d: cluster compdists %d, forest %d",
				qi, gotStats.Compdists, wantStats.Compdists)
		}
	}
}
