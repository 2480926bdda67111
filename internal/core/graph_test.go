package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spbtree/internal/dataset"
	"spbtree/internal/graph"
	"spbtree/internal/metric"
	"spbtree/internal/page"
	"spbtree/internal/recall"
	"spbtree/internal/sfc"
)

// buildGraphTree builds a non-durable vector tree and its approximate graph.
func buildGraphTree(t *testing.T, n int, seed int64) ([]metric.Object, *Tree) {
	t.Helper()
	objs := vectorSet(n, 6, seed)
	tree, err := Build(objs, Options{
		Distance: metric.L2(6), Codec: metric.VectorCodec{Dim: 6},
		NumPivots: 3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BuildGraph(GraphOptions{Seed: seed}); err != nil {
		t.Fatalf("BuildGraph: %v", err)
	}
	return objs, tree
}

// TestGraphKNNRecallFloor pins the tier's quality on seeded synthetic data:
// recall@10 at the default ef stays above the CI floor, and the graph
// counters prove the search actually walked the graph.
func TestGraphKNNRecallFloor(t *testing.T) {
	objs, tree := buildGraphTree(t, 2000, 11)
	defer tree.Close()
	const k = 10
	recalls := make([]float64, 0, 30)
	for qi := 0; qi < 30; qi++ {
		q := objs[qi*61]
		exact, err := tree.KNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		got, qs, err := tree.Query(context.Background(), Query{Op: OpKNNGraph, Q: q, K: k, Timed: true})
		if err != nil {
			t.Fatal(err)
		}
		if qs.GraphHops == 0 || qs.GraphCandidates == 0 {
			t.Fatalf("query %d: graph counters empty: %+v", qi, qs)
		}
		if qs.Op != OpKNNGraph {
			t.Fatalf("Op = %q", qs.Op)
		}
		for i := 1; i < len(got); i++ {
			if got[i].Dist < got[i-1].Dist {
				t.Fatalf("query %d: results not sorted", qi)
			}
		}
		recalls = append(recalls, recall.AtK(resultIDList(exact), resultIDList(got), k))
	}
	if r := recall.Mean(recalls); r < 0.9 {
		t.Fatalf("mean recall@10 = %.3f, want >= 0.90", r)
	}
}

// TestGraphLeavesExactPathUnchanged: building the graph tier perturbs nothing
// on the exact path. On each of the four benchmark datasets the exact kNN
// answers and their distance-computation counts are the same before and after
// BuildGraph, and on Color the graph's own answers reach the recall floor at
// the default ef.
func TestGraphLeavesExactPathUnchanged(t *testing.T) {
	const k = 10
	for _, name := range []string{"words", "color", "color32", "dnaedit"} {
		ds, _ := dataset.ByName(name, 800, 3)
		tree, err := Build(ds.Objects, Options{Distance: ds.Distance, Codec: ds.Codec, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		queries := ds.Queries(10)
		exactPass := func() ([][]Result, int64) {
			var compdists int64
			out := make([][]Result, len(queries))
			for i, q := range queries {
				res, qs, err := tree.Query(context.Background(), Query{Op: OpKNN, Q: q, K: k})
				if err != nil {
					t.Fatalf("%s: exact kNN: %v", name, err)
				}
				out[i], compdists = res, compdists+qs.Compdists
			}
			return out, compdists
		}
		before, cdBefore := exactPass()
		if err := tree.BuildGraph(GraphOptions{Seed: 3}); err != nil {
			t.Fatalf("%s: BuildGraph: %v", name, err)
		}
		after, cdAfter := exactPass()
		if cdBefore != cdAfter {
			t.Fatalf("%s: exact kNN compdists %d before BuildGraph, %d after", name, cdBefore, cdAfter)
		}
		for i := range queries {
			if len(before[i]) != len(after[i]) {
				t.Fatalf("%s q%d: %d results before BuildGraph, %d after", name, i, len(before[i]), len(after[i]))
			}
			for j := range before[i] {
				if b, a := before[i][j], after[i][j]; b.Object.ID() != a.Object.ID() || b.Dist != a.Dist {
					t.Fatalf("%s q%d: result %d changed after BuildGraph: (%d, %v) -> (%d, %v)",
						name, i, j, b.Object.ID(), b.Dist, a.Object.ID(), a.Dist)
				}
			}
		}
		if name == "color" {
			recalls := make([]float64, len(queries))
			for i, q := range queries {
				got, _, err := tree.Query(context.Background(), Query{Op: OpKNNGraph, Q: q, K: k})
				if err != nil {
					t.Fatalf("%s: graph kNN: %v", name, err)
				}
				recalls[i] = recall.AtK(resultIDList(before[i]), resultIDList(got), k)
			}
			if r := recall.Mean(recalls); r < 0.9 {
				t.Fatalf("Color recall@10 at the default ef = %.3f, want >= 0.90", r)
			}
		}
		tree.Close()
	}
}

// TestGraphNoGraphTyped: querying a tree without a graph fails with the typed
// ErrNoGraph that drives the exact-fallback in the forest and server layers.
func TestGraphNoGraphTyped(t *testing.T) {
	objs := vectorSet(200, 4, 12)
	tree, err := Build(objs, Options{Distance: metric.L2(4), Codec: metric.VectorCodec{Dim: 4}, NumPivots: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if _, _, err := tree.Query(context.Background(), Query{Op: OpKNNGraph, Q: objs[0], K: 5}); !errors.Is(err, ErrNoGraph) {
		t.Fatalf("err = %v, want ErrNoGraph", err)
	}
	if tree.HasGraph() {
		t.Fatal("HasGraph true before BuildGraph")
	}
}

// TestGraphInvalidationOnMutation: every structural mutation of the base
// substrates drops the graph, so queries can never read stale offsets.
func TestGraphInvalidationOnMutation(t *testing.T) {
	objs, tree := buildGraphTree(t, 300, 13)
	defer tree.Close()
	rebuild := func() {
		t.Helper()
		if err := tree.BuildGraph(GraphOptions{Seed: 13}); err != nil {
			t.Fatalf("BuildGraph: %v", err)
		}
	}
	check := func(stage string, want bool) {
		t.Helper()
		if tree.HasGraph() != want {
			t.Fatalf("%s: HasGraph = %v, want %v", stage, !want, want)
		}
		if _, _, err := tree.Query(context.Background(), Query{Op: OpKNNGraph, Q: objs[0], K: 5}); (err == nil) != want {
			t.Fatalf("%s: graph query err = %v", stage, err)
		}
	}
	check("initial", true)

	extra := vectorSet(301, 6, 14)[300]
	if err := tree.Insert(extra); err != nil {
		t.Fatal(err)
	}
	check("after Insert", false)

	rebuild()
	check("after re-BuildGraph", true)
	if err := tree.Delete(objs[7]); err != nil {
		t.Fatal(err)
	}
	check("after Delete", false)

	rebuild()
	if err := tree.Rebuild(page.NewMemStore(), page.NewMemStore()); err != nil {
		t.Fatal(err)
	}
	check("after Rebuild", false)
}

// graphBuildGoldens froze, for BuildGraph(GraphOptions{Seed: 1}) on a tree
// built with Seed 1 over 3 000 seeded objects, the distance computations the
// build charged to the tree's counter and the golden row of 20 OpKNNGraph
// queries (k = 10, default ef) over the dataset's first objects. They were
// recorded from the single-goroutine build, before construction fanned out.
var graphBuildGoldens = []struct {
	dataset string
	build   int64
	knn     golden
}{
	{"color32", 943710, golden{Hash: 0x89866ee0f7ae94ba, Verified: 5492, Compdists: 5592, Abandoned: 2468, Discarded: 5292, Results: 200}},
	{"words", 1626528, golden{Hash: 0x97f8fb8d70976826, Verified: 15404, Compdists: 15504, Abandoned: 10580, Discarded: 15204, Results: 200}},
	// TrigramAngular compares one decoded *Seq on several goroutines at once.
	{"dna", 678089, golden{Hash: 0xeaeadc79558a2a20, Verified: 3788, Compdists: 3888, Discarded: 3588, Results: 200}},
}

// TestGraphBuildDeterministic: whatever GOMAXPROCS construction runs at, it
// charges the frozen compdists and yields a graph whose answers — and their
// counters — are the frozen ones.
func TestGraphBuildDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, gc := range graphBuildGoldens {
		ds, _ := dataset.ByName(gc.dataset, 3000, 1)
		tree, err := Build(ds.Objects, Options{Distance: ds.Distance, Codec: ds.Codec, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			before := tree.dist.Count()
			if err := tree.BuildGraph(GraphOptions{Seed: 1}); err != nil {
				t.Fatal(err)
			}
			charged := tree.dist.Count() - before
			var got golden
			for _, q := range ds.Queries(20) {
				res, qs, err := tree.Query(context.Background(), Query{Op: OpKNNGraph, Q: q, K: 10})
				got.add(res, qs, err)
			}
			if charged != gc.build || got != gc.knn {
				t.Errorf("%s at GOMAXPROCS %d: build charged %d compdists, answers %+v; want %d, %+v",
					gc.dataset, procs, charged, got, gc.build, gc.knn)
			}
		}
		tree.Close()
	}
}

// countdownDist cancels a context at its N-th Distance call once armed.
type countdownDist struct {
	metric.DistanceFunc
	left   atomic.Int64 // calls until cancel; ≤ 0 disarms
	cancel context.CancelFunc
}

func (c *countdownDist) Distance(a, b metric.Object) float64 {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
	return c.DistanceFunc.Distance(a, b)
}

// TestGraphCtxCanceled: the graph entry points honor the typed cancellation
// contract, and a canceled construction — by deadline, or canceled inside the
// first local-join round — neither leaks goroutines nor leaves a
// half-attached graph.
func TestGraphCtxCanceled(t *testing.T) {
	sd := &slowDist{DistanceFunc: metric.L2(4)}
	objs := vectorSet(400, 4, 16)
	tree, err := Build(objs, Options{Distance: sd, Codec: metric.VectorCodec{Dim: 4}, NumPivots: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()

	before := runtime.NumGoroutine()
	sd.delay.Store(int64(200 * time.Microsecond))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err = tree.BuildGraphCtx(ctx, GraphOptions{})
	sd.delay.Store(0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("BuildGraphCtx err = %v, want DeadlineExceeded", err)
	}
	if tree.HasGraph() {
		t.Fatal("canceled build attached a graph")
	}
	waitGoroutines(t, before)

	// The random initialization evaluates at most n·K pairs, so call
	// n·K + 500 falls in the first local-join round.
	cd := &countdownDist{DistanceFunc: metric.L2(4)}
	joinTree, err := Build(objs, Options{Distance: cd, Codec: metric.VectorCodec{Dim: 4}, NumPivots: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer joinTree.Close()
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	cd.cancel = cancel
	cd.left.Store(int64(len(objs)*16 + 500))
	if err := joinTree.BuildGraphCtx(ctx, GraphOptions{K: 16}); !errors.Is(err, context.Canceled) {
		t.Fatalf("BuildGraphCtx canceled in the local join: err = %v, want context.Canceled", err)
	}
	if joinTree.HasGraph() {
		t.Fatal("build canceled in the local join attached a graph")
	}
	waitGoroutines(t, before)

	if err := tree.BuildGraph(GraphOptions{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	canceled, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if _, _, err := tree.Query(canceled, Query{Op: OpKNNGraph, Q: objs[0], K: 5}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("graph query err = %v, want ErrCanceled", err)
	}
}

// waitGoroutines fails the test unless the goroutine count falls back to
// before within five seconds.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines leaked by canceled build: %d > %d", g, before)
	}
}

// TestGraphStaleBuild: a structural mutation racing construction is detected
// at attach time — the result is either a clean ErrGraphStale or a successful
// build, never a silently wrong graph — and a quiet retry succeeds.
func TestGraphStaleBuild(t *testing.T) {
	objs := vectorSet(1500, 6, 17)
	tree, err := Build(objs[:1000], Options{Distance: metric.L2(6), Codec: metric.VectorCodec{Dim: 6}, NumPivots: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1000; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := tree.Insert(objs[1000+(i%500)]); err != nil {
				return
			}
		}
	}()
	for i := 0; i < 5; i++ {
		if err := tree.BuildGraph(GraphOptions{K: 8, MaxIters: 3}); err != nil && !errors.Is(err, ErrGraphStale) {
			t.Fatalf("BuildGraph: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	if err := tree.BuildGraph(GraphOptions{K: 8, MaxIters: 3, Seed: 2}); err != nil {
		t.Fatalf("quiet BuildGraph: %v", err)
	}
	if !tree.HasGraph() {
		t.Fatal("no graph after quiet build")
	}
}

// TestGraphDeltaMerge: on a durable tree, graph queries merge buffered
// inserts (a buffered nearest neighbor must surface) and honor tombstones (a
// deleted base object must never surface), without rebuilding the graph.
func TestGraphDeltaMerge(t *testing.T) {
	dir := t.TempDir()
	objs := vectorSet(600, 5, 18)
	dist := metric.L2(5)
	tree, err := CreateDurable(dir, objs, Options{
		Distance: dist, Codec: metric.VectorCodec{Dim: 5}, Seed: 7, Curve: sfc.ZOrder,
	}, DurableOptions{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if err := tree.BuildGraph(GraphOptions{Seed: 18}); err != nil {
		t.Fatal(err)
	}

	q := objs[40]
	exact, err := tree.KNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Delete the two nearest base neighbors; the graph must stay live
	// (buffered writes never invalidate it) yet never surface them.
	deleted := map[uint64]bool{}
	for _, r := range exact[:2] {
		if err := tree.Delete(r.Object); err != nil {
			t.Fatal(err)
		}
		deleted[r.Object.ID()] = true
	}
	// Insert a fresh object right next to q; the delta merge must rank it.
	qc := append([]float64(nil), q.(*metric.Vector).Coords...)
	qc[0] += 1e-9
	probe := metric.NewVector(999999, qc)
	if err := tree.Insert(probe); err != nil {
		t.Fatal(err)
	}
	if !tree.HasGraph() {
		t.Fatal("buffered writes invalidated the graph")
	}
	got, qs, err := tree.Query(context.Background(), Query{Op: OpKNNGraph, Q: q, K: 5, Search: SearchOptions{Ef: 64}, Timed: true})
	if err != nil {
		t.Fatal(err)
	}
	if qs.DeltaCandidates == 0 {
		t.Fatalf("delta merge did not run: %+v", qs)
	}
	found := false
	for _, r := range got {
		if deleted[r.Object.ID()] {
			t.Fatalf("deleted object %d surfaced", r.Object.ID())
		}
		if r.Object.ID() == probe.ID() {
			found = true
		}
	}
	if !found {
		t.Fatal("buffered insert adjacent to q did not surface")
	}

	// Compaction folds the delta and invalidates the graph.
	if err := tree.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if tree.HasGraph() {
		t.Fatal("graph survived the compaction swap")
	}
	if _, _, err := tree.Query(context.Background(), Query{Op: OpKNNGraph, Q: q, K: 5}); !errors.Is(err, ErrNoGraph) {
		t.Fatalf("err = %v, want ErrNoGraph after compaction", err)
	}
}

// TestGraphPersistenceRoundtrip: SaveAtomic writes the graph beside the meta,
// Load reattaches it with byte-identical answers, and a save without a live
// graph removes the stale file.
func TestGraphPersistenceRoundtrip(t *testing.T) {
	dir := t.TempDir()
	objs := vectorSet(500, 5, 19)
	dist := metric.L2(5)
	idx, err := page.NewFileStore(filepath.Join(dir, IndexPagesFile))
	if err != nil {
		t.Fatal(err)
	}
	data, err := page.NewFileStore(filepath.Join(dir, DataPagesFile))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(objs, Options{
		Distance: dist, Codec: metric.VectorCodec{Dim: 5},
		IndexStore: idx, DataStore: data, NumPivots: 3, Seed: 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BuildGraph(GraphOptions{Seed: 19}); err != nil {
		t.Fatal(err)
	}
	want, _, err := tree.Query(context.Background(), Query{Op: OpKNNGraph, Q: objs[3], K: 7, Search: SearchOptions{Ef: 40}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.SaveAtomic(dir); err != nil {
		t.Fatal(err)
	}
	tree.Close()

	lopts := LoadOptions{Distance: dist, Codec: metric.VectorCodec{Dim: 5}}
	re, err := Load(dir, lopts)
	if err != nil {
		t.Fatal(err)
	}
	if !re.HasGraph() {
		t.Fatal("graph not reattached by Load")
	}
	got, _, err := re.Query(context.Background(), Query{Op: OpKNNGraph, Q: objs[3], K: 7, Search: SearchOptions{Ef: 40}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("result counts differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Dist != got[i].Dist || want[i].Object.ID() != got[i].Object.ID() {
			t.Fatalf("result %d differs after reload", i)
		}
	}
	// Invalidate (structural mutation) and save again: graph.bin must go.
	if err := re.Delete(objs[9]); err != nil {
		t.Fatal(err)
	}
	if err := re.SaveAtomic(dir); err != nil {
		t.Fatal(err)
	}
	re.Close()
	if _, err := os.Stat(filepath.Join(dir, GraphFile)); !os.IsNotExist(err) {
		t.Fatalf("stale graph.bin not removed: %v", err)
	}
	re2, err := Load(dir, lopts)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.HasGraph() {
		t.Fatal("HasGraph true with no graph file")
	}
}

// TestGraphFileCorruption: a truncated or bit-flipped graph file fails Load
// with the typed graph.ErrCorrupt; a structurally valid graph from a
// different base is silently ignored rather than served.
func TestGraphFileCorruption(t *testing.T) {
	dir := t.TempDir()
	objs := vectorSet(400, 5, 20)
	dist := metric.L2(5)
	idx, err := page.NewFileStore(filepath.Join(dir, IndexPagesFile))
	if err != nil {
		t.Fatal(err)
	}
	data, err := page.NewFileStore(filepath.Join(dir, DataPagesFile))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(objs, Options{
		Distance: dist, Codec: metric.VectorCodec{Dim: 5},
		IndexStore: idx, DataStore: data, NumPivots: 3, Seed: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BuildGraph(GraphOptions{Seed: 20}); err != nil {
		t.Fatal(err)
	}
	if err := tree.SaveAtomic(dir); err != nil {
		t.Fatal(err)
	}
	tree.Close()

	gpath := filepath.Join(dir, GraphFile)
	pristine, err := os.ReadFile(gpath)
	if err != nil {
		t.Fatal(err)
	}
	lopts := LoadOptions{Distance: dist, Codec: metric.VectorCodec{Dim: 5}}

	if err := os.WriteFile(gpath, pristine[:len(pristine)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, lopts); !errors.Is(err, graph.ErrCorrupt) {
		t.Fatalf("truncated: err = %v, want graph.ErrCorrupt", err)
	}

	flipped := append([]byte(nil), pristine...)
	flipped[len(flipped)/3] ^= 0x20
	if err := os.WriteFile(gpath, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, lopts); !errors.Is(err, graph.ErrCorrupt) {
		t.Fatalf("bit flip: err = %v, want graph.ErrCorrupt", err)
	}

	// A valid graph built over a different base: decodes fine, but its
	// BaseCount/BaseSize do not match — ignored, not served.
	other := testOtherGraph(t)
	if err := os.WriteFile(gpath, other.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Load(dir, lopts)
	if err != nil {
		t.Fatalf("foreign graph should be ignored, got %v", err)
	}
	defer re.Close()
	if re.HasGraph() {
		t.Fatal("foreign graph attached")
	}
}

// testOtherGraph builds a tiny valid graph with mismatched base metadata.
func testOtherGraph(t *testing.T) *graph.Graph {
	t.Helper()
	pts := vectorSet(30, 3, 21)
	l2 := metric.L2(3)
	dist := func(i, j int, thr float64) (float64, bool) {
		d := l2.Distance(pts[i], pts[j])
		return d, d <= thr
	}
	g, err := graph.Build(context.Background(), 30, dist, graph.Options{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g.IDs = make([]uint64, 30)
	g.Offs = make([]uint64, 30)
	g.BaseCount, g.BaseSize = 30, 999
	return g
}

// TestGraphStressQueriesWrites is the -race gate: durable writers churn
// inserts and deletes while graph queries run; no query may ever return an
// object whose delete completed before the query began.
func TestGraphStressQueriesWrites(t *testing.T) {
	dir := t.TempDir()
	objs := vectorSet(800, 5, 22)
	dist := metric.L2(5)
	tree, err := CreateDurable(dir, objs, Options{
		Distance: dist, Codec: metric.VectorCodec{Dim: 5}, Seed: 7, Curve: sfc.ZOrder,
	}, DurableOptions{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if err := tree.BuildGraph(GraphOptions{Seed: 22}); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	deleted := map[uint64]bool{}
	snapshotDeleted := func() map[uint64]bool {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[uint64]bool, len(deleted))
		for id := range deleted {
			out[id] = true
		}
		return out
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: delete a base object, insert a fresh one, repeat
		defer wg.Done()
		fresh := vectorSet(400, 5, 23)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			victim := objs[(i*13)%len(objs)]
			if err := tree.Delete(victim); err == nil {
				mu.Lock()
				deleted[victim.ID()] = true
				mu.Unlock()
			}
			nv := fresh[i%len(fresh)]
			_ = tree.Insert(metric.NewVector(100000+uint64(i), nv.(*metric.Vector).Coords))
		}
	}()

	var qerr error
	var qmu sync.Mutex
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				dead := snapshotDeleted()
				res, _, err := tree.Query(context.Background(), Query{Op: OpKNNGraph, Q: objs[(w*37+i)%len(objs)], K: 8, Search: SearchOptions{Ef: 32}})
				if err != nil {
					qmu.Lock()
					qerr = err
					qmu.Unlock()
					return
				}
				for _, r := range res {
					if dead[r.Object.ID()] {
						qmu.Lock()
						qerr = errors.New("tombstoned object surfaced from graph query")
						qmu.Unlock()
						return
					}
				}
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if qerr != nil {
		t.Fatal(qerr)
	}
}

// TestCalibrateEfTargetRecall exercises the §15.5 loop: calibrate, read the
// curve, then let a recall target resolve the beam width.
func TestCalibrateEfTargetRecall(t *testing.T) {
	objs, tree := buildGraphTree(t, 2000, 19)
	defer tree.Close()

	ef, err := tree.CalibrateEf(0.95, 24)
	if err != nil {
		t.Fatalf("CalibrateEf: %v", err)
	}
	if ef <= 0 {
		t.Fatalf("calibrated ef = %d", ef)
	}
	curve := tree.EfCurve()
	if len(curve) != len(calibrateEfWidths) {
		t.Fatalf("curve has %d points, want %d", len(curve), len(calibrateEfWidths))
	}
	for i, p := range curve {
		if p.Ef != calibrateEfWidths[i] {
			t.Fatalf("curve point %d has ef %d, want %d", i, p.Ef, calibrateEfWidths[i])
		}
		if p.Recall < 0 || p.Recall > 1 {
			t.Fatalf("curve recall %v out of range", p.Recall)
		}
	}

	// A modest target must resolve to some calibrated width, and the width
	// chosen for a high target can only be ≥ the width for a low target
	// (running-max selection).
	low := tree.mustEfFor(t, 0.5)
	high := tree.mustEfFor(t, 0.99)
	if low > high {
		t.Fatalf("efForRecall not monotone: target 0.5 → %d, 0.99 → %d", low, high)
	}

	// TargetRecall-driven queries run and hit the quality the curve claims
	// (loose floor — the sample and the probe queries differ).
	const k = 10
	recalls := make([]float64, 0, 20)
	for qi := 0; qi < 20; qi++ {
		q := objs[qi*83]
		exact, err := tree.KNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := tree.Query(context.Background(), Query{Op: OpKNNGraph, Q: q, K: k, Search: SearchOptions{TargetRecall: 0.95}})
		if err != nil {
			t.Fatal(err)
		}
		recalls = append(recalls, recall.AtK(resultIDList(exact), resultIDList(got), k))
	}
	if r := recall.Mean(recalls); r < 0.85 {
		t.Fatalf("TargetRecall=0.95 queries measured %.3f", r)
	}

	// Explicit Ef beats TargetRecall; without either, DefaultEf applies —
	// both must keep working with a curve stored.
	if _, _, err := tree.Query(context.Background(), Query{Op: OpKNNGraph, Q: objs[0], K: k, Search: SearchOptions{Ef: 32, TargetRecall: 0.99}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tree.Query(context.Background(), Query{Op: OpKNNGraph, Q: objs[0], K: k}); err != nil {
		t.Fatal(err)
	}

	// Rebuilding the graph drops the curve — a calibration may never
	// describe a graph it did not measure.
	if err := tree.BuildGraph(GraphOptions{Seed: 20}); err != nil {
		t.Fatal(err)
	}
	if c := tree.EfCurve(); c != nil {
		t.Fatalf("curve survived a graph rebuild: %v", c)
	}

	// No graph at all: typed error.
	bare, err := Build(objs[:200], Options{
		Distance: metric.L2(6), Codec: metric.VectorCodec{Dim: 6}, NumPivots: 3, Seed: 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if _, err := bare.CalibrateEf(0.9, 8); err != ErrNoGraph {
		t.Fatalf("CalibrateEf without graph: %v", err)
	}
}

// mustEfFor resolves a recall target under the read lock, for tests.
func (t *Tree) mustEfFor(tt *testing.T, target float64) int {
	tt.Helper()
	t.mu.RLock()
	defer t.mu.RUnlock()
	ef := t.efForRecall(target)
	if ef <= 0 {
		tt.Fatalf("efForRecall(%v) = %d with a stored curve", target, ef)
	}
	return ef
}
