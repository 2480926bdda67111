package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"spbtree/internal/core"
	"spbtree/internal/dataset"
	"spbtree/internal/forest"
	"spbtree/internal/metric"
)

// nodeGroupCompdists is what a cluster query must spend: each owning node's
// shard group run as a local forest over the reference shards — one planner
// per node, none across nodes — and the distance computations summed.
func (tc *testCluster) nodeGroupCompdists(t *testing.T, q core.Query) int64 {
	t.Helper()
	var sum int64
	for _, shards := range tc.router.Placement().ByOwner() {
		trees := make([]*core.Tree, len(shards))
		for i, s := range shards {
			trees[i] = tc.ref.Shards()[s]
		}
		group, err := forest.FromShards(trees, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, qs, err := group.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		sum += qs.Compdists
	}
	return sum
}

// TestClusterAdaptiveVsFlat: the router — one scatter, each node staging
// over the shards it owns — answers byte-identically to the local
// reference forest, before and after writes, and the nodes' plans are visible
// in the merged stats.
func TestClusterAdaptiveVsFlat(t *testing.T) {
	ds := dataset.Words(900, 41)
	tc := startCluster(t, ds, 4)
	ctx := context.Background()

	check := func(phase string, queries []metric.Object) {
		for qi, q := range queries {
			for _, r := range []float64{1, 2, 3} {
				req := core.Query{Op: core.OpRange, Q: q, Radius: r, Timed: true}
				got, qs, err := tc.router.Query(ctx, req)
				if err != nil {
					t.Fatalf("%s router range: %v", phase, err)
				}
				want, _, err := tc.ref.Query(ctx, req)
				if err != nil {
					t.Fatalf("%s forest range: %v", phase, err)
				}
				sameResults(t, fmt.Sprintf("%s range q%d r=%v", phase, qi, r), got, want)
				if qs.Plan.ShardsTotal != 4 {
					t.Fatalf("%s: range plan: %+v", phase, qs.Plan)
				}
			}
			for _, k := range []int{1, 5, 20} {
				req := core.Query{Op: core.OpKNN, Q: q, K: k, Timed: true}
				got, qs, err := tc.router.Query(ctx, req)
				if err != nil {
					t.Fatalf("%s router knn: %v", phase, err)
				}
				want, _, err := tc.ref.Query(ctx, req)
				if err != nil {
					t.Fatalf("%s forest knn: %v", phase, err)
				}
				sameResults(t, fmt.Sprintf("%s knn q%d k=%d", phase, qi, k), got, want)
				// Four shards on three nodes: some node owns two and stages them.
				if !qs.Plan.Staged || qs.Plan.ShardsTotal != 4 {
					t.Fatalf("%s: kNN plan not staged: %+v", phase, qs.Plan)
				}
			}
		}
	}

	queries := make([]metric.Object, 0, 5)
	for qi := 0; qi < 5; qi++ {
		queries = append(queries, tc.objs[(qi*131)%len(tc.objs)])
	}
	check("fresh", queries)

	// Writes must not break the equivalence: each node's first shard bounds
	// the rest over its buffered inserts too.
	extra := []metric.Object{
		metric.NewStr(200001, "zzyzzxva"),
		metric.NewStr(200002, "taquamon"),
		metric.NewStr(200003, "elsuforing"),
	}
	for _, o := range extra {
		if err := tc.router.Insert(ctx, o); err != nil {
			t.Fatalf("insert: %v", err)
		}
		if err := tc.ref.Shards()[forest.PartitionOf(o.ID(), 4)].Insert(o); err != nil {
			t.Fatalf("reference insert: %v", err)
		}
	}
	check("after-writes", append(queries, extra...))

	// The inserted objects are visible through the router.
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
		t.Fatal("inserted object invisible to a range query through the router")
	}
}

// TestClusterFarRangeOverWire: the plan survives the wire as the nodes made
// it, and a query costs one kQuery per owning node and nothing else. A range
// query far outside the data still reaches every owning node, whose forest
// visits all its shards and finds nothing; a kNN reports the staging the
// nodes did. The nodes' registries label the two rpc.range and rpc.knn.
func TestClusterFarRangeOverWire(t *testing.T) {
	ds := dataset.Color(600, 43)
	tc := startCluster(t, ds, 4)
	ctx := context.Background()

	var mu sync.Mutex
	seen := make(map[string][]byte) // node name → kinds received, in order
	for _, n := range tc.nodes {
		name := n.cfg.Name
		n.OnRequest = func(kind byte) {
			mu.Lock()
			seen[name] = append(seen[name], kind)
			mu.Unlock()
		}
	}
	// onePerOwner asserts the last query was exactly one RPC of kind per
	// owning node and nothing to anyone else.
	onePerOwner := func(label string, kind byte) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		owners := tc.router.Placement().ByOwner()
		for name, kinds := range seen {
			if _, owns := owners[name]; !owns || len(kinds) != 1 || kinds[0] != kind {
				t.Fatalf("%s: node %s received kinds %v, want exactly one %d on owning nodes only", label, name, kinds, kind)
			}
		}
		if len(seen) != len(owners) {
			t.Fatalf("%s: %d nodes received an RPC, %d own shards", label, len(seen), len(owners))
		}
		seen = make(map[string][]byte)
	}

	// Color vectors live near the unit cube; a query at 50·1⃗ with a tiny
	// radius meets none of them.
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
	if qs.Plan.ShardsTotal != 4 || qs.Plan.Staged {
		t.Fatalf("range plan lost on the wire: %+v", qs.Plan)
	}
	onePerOwner("far range", kQuery)

	_, qs, err = tc.router.Query(ctx, core.Query{Op: core.OpKNN, Q: tc.objs[7], K: 10, Timed: true})
	if err != nil {
		t.Fatal(err)
	}
	if !qs.Plan.Staged || qs.Plan.ShardsTotal != 4 {
		t.Fatalf("kNN plan lost on the wire: %+v", qs.Plan)
	}
	onePerOwner("knn", kQuery)

	// One message kind, two registry labels, taken from the query's Op.
	for name := range tc.router.Placement().ByOwner() {
		ops := tc.node(name).reg.Snapshot()
		if ops["rpc.range"].Queries != 1 || ops["rpc.knn"].Queries != 1 {
			t.Fatalf("node %s: rpc.range %d, rpc.knn %d queries, want 1 each", name, ops["rpc.range"].Queries, ops["rpc.knn"].Queries)
		}
	}
}

// TestClusterStagedMatchesForest: a cluster kNN reproduces the local
// reference forest's answers byte for byte, and costs exactly what its nodes'
// plans say: each owning node stages its own group, so the router's compdists
// are the sum of those groups run as local forests — not the whole forest's,
// whose one bound covers every shard.
func TestClusterStagedMatchesForest(t *testing.T) {
	ds := dataset.Color(600, 47)
	tc := startCluster(t, ds, 4)
	ctx := context.Background()
	for qi := 0; qi < 6; qi++ {
		req := core.Query{Op: core.OpKNN, Q: tc.objs[(qi*89)%len(tc.objs)], K: 10, Timed: true}
		got, gotStats, err := tc.router.Query(ctx, req)
		if err != nil {
			t.Fatalf("cluster knn: %v", err)
		}
		want, wantStats, err := tc.ref.Query(ctx, req)
		if err != nil {
			t.Fatalf("forest knn: %v", err)
		}
		sameResults(t, fmt.Sprintf("staged knn q%d", qi), got, want)
		if !gotStats.Plan.Staged || !wantStats.Plan.Staged {
			t.Fatalf("q%d: staging off (cluster %v, forest %v)",
				qi, gotStats.Plan.Staged, wantStats.Plan.Staged)
		}
		if groups := tc.nodeGroupCompdists(t, req); gotStats.Compdists != groups {
			t.Fatalf("q%d: cluster compdists %d, its nodes' groups as local forests %d",
				qi, gotStats.Compdists, groups)
		}
	}
}
