package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"spbtree/internal/core"
	"spbtree/internal/dataset"
	"spbtree/internal/forest"
	"spbtree/internal/metric"
	"spbtree/internal/sfc"
)

// testCluster is an in-process 3-node cluster plus the reference forest it
// must answer identically to.
type testCluster struct {
	router *Router
	nodes  []*Node
	ref    *forest.Forest
	objs   []metric.Object
	ds     dataset.Dataset
}

// startCluster bootstraps ds across three in-process nodes (real TCP on
// loopback) and builds the byte-identical reference forest over the same
// objects and options.
func startCluster(t *testing.T, ds dataset.Dataset, shards int) *testCluster {
	t.Helper()
	return startClusterOn(t, ds, shards, []string{"n1", "n2", "n3"}, 0)
}

// startClusterOn is startCluster over the named nodes, each running its
// shard group with the given forest parallelism (0 = all shards at once).
func startClusterOn(t *testing.T, ds dataset.Dataset, shards int, names []string, parallel int) *testCluster {
	t.Helper()
	root := t.TempDir()
	treeOpts := core.Options{Distance: ds.Distance, Codec: ds.Codec,
		Curve: sfc.ZOrder, Seed: 1}
	cfg := &Config{Type: "words", Shards: shards, Curve: "zorder"}
	for _, n := range names {
		cfg.Nodes = append(cfg.Nodes, NodeDef{Name: n, Addr: "pending"})
	}
	placement, err := Bootstrap(cfg, ds.Objects, BootstrapOptions{Dir: root, Tree: treeOpts})
	if err != nil {
		t.Fatal(err)
	}

	tc := &testCluster{objs: ds.Objects, ds: ds}
	for _, name := range names {
		node, err := OpenNode(NodeConfig{
			Name: name, Dir: NodeDir(root, name), Parallel: parallel,
			Load: core.LoadOptions{Distance: ds.Distance, Codec: ds.Codec},
		})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		placement.Nodes[name] = ln.Addr().String()
		go node.Serve(ln)
		tc.nodes = append(tc.nodes, node)
	}
	t.Cleanup(func() {
		for _, n := range tc.nodes {
			n.Close()
		}
	})

	tc.router, err = NewRouter(placement, ds.Codec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tc.router.Close() })

	tc.ref, err = forest.Build(ds.Objects, forest.Options{Tree: treeOpts, Shards: shards, Parallel: parallel})
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

// node returns the test node by placement name.
func (tc *testCluster) node(name string) *Node {
	for _, n := range tc.nodes {
		if n.cfg.Name == name {
			return n
		}
	}
	return nil
}

// sameResults asserts byte-identical answers: same IDs, distances, and
// exactness flags in the same order.
func sameResults(t *testing.T, label string, got, want []core.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Object.ID() != want[i].Object.ID() ||
			got[i].Dist != want[i].Dist || got[i].Exact != want[i].Exact {
			t.Fatalf("%s: result %d = (id %d, dist %v, exact %v), want (id %d, dist %v, exact %v)",
				label, i, got[i].Object.ID(), got[i].Dist, got[i].Exact,
				want[i].Object.ID(), want[i].Dist, want[i].Exact)
		}
	}
}

// equivalenceCase runs the full equivalence suite for one dataset: range,
// kNN and join answers from the 3-node cluster must match the
// single-process forest byte for byte, and — queries being deterministic —
// so must the compdists work counters: a range query's equal the forest's
// (pruning is per shard), a kNN's equal its nodes' shard groups run as local
// forests (each node stages on its own).
func equivalenceCase(t *testing.T, ds dataset.Dataset, radii []float64, eps float64) {
	tc := startCluster(t, ds, 4)
	ctx := context.Background()
	for qi := 0; qi < 6; qi++ {
		q := tc.objs[(qi*97)%len(tc.objs)]
		for _, r := range radii {
			got, gotStats, err := tc.router.Query(ctx, core.Query{Op: core.OpRange, Q: q, Radius: r, Timed: true})
			if err != nil {
				t.Fatalf("cluster range: %v", err)
			}
			want, wantStats, err := tc.ref.Query(ctx, core.Query{Op: core.OpRange, Q: q, Radius: r, Timed: true})
			if err != nil {
				t.Fatalf("forest range: %v", err)
			}
			sameResults(t, fmt.Sprintf("range q%d r=%v", qi, r), got, want)
			if gotStats.Compdists != wantStats.Compdists {
				t.Fatalf("range q%d r=%v: cluster compdists %d, forest %d",
					qi, r, gotStats.Compdists, wantStats.Compdists)
			}
		}
		for _, k := range []int{1, 10} {
			got, gotStats, err := tc.router.Query(ctx, core.Query{Op: core.OpKNN, Q: q, K: k, Timed: true})
			if err != nil {
				t.Fatalf("cluster knn: %v", err)
			}
			want, _, err := tc.ref.Query(ctx, core.Query{Op: core.OpKNN, Q: q, K: k, Timed: true})
			if err != nil {
				t.Fatalf("forest knn: %v", err)
			}
			sameResults(t, fmt.Sprintf("knn q%d k=%d", qi, k), got, want)
			if groups := tc.nodeGroupCompdists(t, core.Query{Op: core.OpKNN, Q: q, K: k}); gotStats.Compdists != groups {
				t.Fatalf("knn q%d k=%d: cluster compdists %d, its nodes' groups as local forests %d",
					qi, k, gotStats.Compdists, groups)
			}
		}
	}

	gotPairs, err := tc.router.Join(ctx, eps)
	if err != nil {
		t.Fatalf("cluster join: %v", err)
	}
	refPairs, err := forest.Join(tc.ref, tc.ref, eps)
	if err != nil {
		t.Fatalf("forest join: %v", err)
	}
	wantPairs := core.IDPairs(refPairs)
	core.SortIDPairs(wantPairs)
	if len(gotPairs) != len(wantPairs) {
		t.Fatalf("join: %d pairs, want %d", len(gotPairs), len(wantPairs))
	}
	for i := range gotPairs {
		if gotPairs[i] != wantPairs[i] {
			t.Fatalf("join pair %d = %+v, want %+v", i, gotPairs[i], wantPairs[i])
		}
	}
	if len(wantPairs) == 0 {
		t.Fatalf("join produced no pairs; raise eps so the test asserts something")
	}
}

func TestClusterEquivalenceWords(t *testing.T) {
	equivalenceCase(t, dataset.Words(900, 7), []float64{1, 2}, 1)
}

func TestClusterEquivalenceColor(t *testing.T) {
	equivalenceCase(t, dataset.Color(600, 8), []float64{0.05, 0.12}, 0.04)
}

func TestClusterEquivalenceDNAEdit(t *testing.T) {
	equivalenceCase(t, dataset.DNAEdit(200, 9), []float64{8, 14}, 10)
}

// TestClusterNodeDownPartials: with one node down, queries return the
// healthy nodes' full answers plus one typed NodeError naming the dead
// node — within the deadline, never hanging.
func TestClusterNodeDownPartials(t *testing.T) {
	ds := dataset.Words(600, 11)
	tc := startCluster(t, ds, 4)
	p := tc.router.Placement()

	// Kill a node that owns at least one shard but NOT the query's own
	// shard, so the partial answer is guaranteed non-empty (it contains at
	// least the query object itself).
	q := tc.objs[3]
	qOwner := p.Owners[forest.PartitionOf(q.ID(), p.Shards)]
	var victim string
	for name, shards := range p.ByOwner() {
		if len(shards) > 0 && name != qOwner {
			victim = name
			break
		}
	}
	if victim == "" {
		t.Fatal("placement gave every shard to one node; ring is broken")
	}
	deadShards := p.ShardsOf(victim)
	tc.node(victim).Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	got, _, err := tc.router.Query(ctx, core.Query{Op: core.OpRange, Q: q, Radius: 2, Timed: true})
	if elapsed := time.Since(start); elapsed > 8*time.Second {
		t.Fatalf("query with a down node took %v; partials must come back fast", elapsed)
	}
	if err == nil {
		t.Fatal("want a NodeError for the down node, got nil")
	}
	nes := AsNodeErrors(err)
	if len(nes) != 1 || nes[0].Node != victim {
		t.Fatalf("NodeErrors = %+v, want exactly one naming %s", nes, victim)
	}

	// The partial answer is exactly the reference minus the dead node's
	// shards.
	dead := make(map[int]bool)
	for _, s := range deadShards {
		dead[s] = true
	}
	full, err2 := tc.ref.RangeQuery(q, 2)
	if err2 != nil {
		t.Fatal(err2)
	}
	var want []core.Result
	for _, res := range full {
		if !dead[forest.PartitionOf(res.Object.ID(), p.Shards)] {
			want = append(want, res)
		}
	}
	sameResults(t, "partials", got, want)
	if len(want) == 0 {
		t.Fatal("surviving shards contributed nothing; enlarge the radius")
	}
}

// TestClusterMidQueryKill: a node dying while serving a query (not before)
// still yields partials plus a typed per-node error within the deadline.
func TestClusterMidQueryKill(t *testing.T) {
	ds := dataset.Words(600, 13)
	tc := startCluster(t, ds, 4)
	p := tc.router.Placement()
	// The query object's own shard must survive the kill, so the answer is
	// guaranteed non-empty (it contains at least the query itself).
	q := tc.objs[5]
	qShard := forest.PartitionOf(q.ID(), p.Shards)
	var victim string
	for name, shards := range p.ByOwner() {
		if len(shards) > 0 && name != p.Owners[qShard] {
			victim = name
			break
		}
	}
	if victim == "" {
		t.Fatal("placement gave every shard to one node; ring is broken")
	}
	node := tc.node(victim)
	var once sync.Once
	node.OnRequest = func(kind byte) {
		if kind == kRange {
			once.Do(func() { node.Close() }) // die mid-request
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	got, _, err := tc.router.Query(ctx, core.Query{Op: core.OpRange, Q: q, Radius: 2, Timed: true})
	if elapsed := time.Since(start); elapsed > 8*time.Second {
		t.Fatalf("mid-query kill took %v to surface", elapsed)
	}
	if err == nil {
		t.Fatal("want a NodeError for the killed node, got nil")
	}
	nes := AsNodeErrors(err)
	found := false
	for _, ne := range nes {
		if ne.Node == victim {
			found = true
		}
	}
	if !found {
		t.Fatalf("NodeErrors = %+v, want one naming %s", nes, victim)
	}
	// Healthy nodes' answers still arrived.
	if len(got) == 0 {
		t.Fatal("no partial results survived the kill")
	}
}

// TestClusterDeadlinePropagation: an expired caller deadline surfaces as
// core.ErrCanceled (wrapped in NodeErrors), not as a hang or a generic
// failure.
func TestClusterDeadlinePropagation(t *testing.T) {
	ds := dataset.Words(400, 17)
	tc := startCluster(t, ds, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := tc.router.Query(ctx, core.Query{Op: core.OpRange, Q: tc.objs[0], Radius: 2, Timed: true})
	if err == nil {
		t.Fatal("want cancellation error")
	}
	if !errors.Is(err, core.ErrCanceled) && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled/context.Canceled in the chain", err)
	}
}

// TestClusterMutations: inserts route to the hash-owner and become visible
// to queries; deletes remove; a second delete maps to core.ErrNotFound
// across the wire.
func TestClusterMutations(t *testing.T) {
	ds := dataset.Words(500, 19)
	tc := startCluster(t, ds, 4)
	ctx := context.Background()

	obj := metric.NewStr(100000, "zzyzzx")
	if err := tc.router.Insert(ctx, obj); err != nil {
		t.Fatalf("insert: %v", err)
	}
	got, _, err := tc.router.Query(ctx, core.Query{Op: core.OpRange, Q: obj, Radius: 0, Timed: true})
	if err != nil {
		t.Fatalf("range after insert: %v", err)
	}
	found := false
	for _, res := range got {
		if res.Object.ID() == obj.ID() {
			found = true
		}
	}
	if !found {
		t.Fatal("inserted object not visible to cluster queries")
	}

	if err := tc.router.Delete(ctx, obj); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := tc.router.Delete(ctx, obj); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("second delete: err = %v, want ErrNotFound across the wire", err)
	}
}

// TestClusterStats: every node reports, totals match the dataset.
func TestClusterStats(t *testing.T) {
	ds := dataset.Words(500, 23)
	tc := startCluster(t, ds, 4)
	cs := tc.router.Stats(context.Background())
	if len(cs.Errors) != 0 {
		t.Fatalf("stats errors: %v", cs.Errors)
	}
	if got := cs.Objects(); got != len(tc.objs) {
		t.Fatalf("cluster reports %d objects, want %d", got, len(tc.objs))
	}
	shardCount := 0
	for _, n := range cs.Nodes {
		shardCount += len(n.Shards)
	}
	if shardCount != 4 {
		t.Fatalf("nodes report %d shards total, want 4", shardCount)
	}
}
