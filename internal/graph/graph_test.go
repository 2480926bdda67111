package graph

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// testPoints returns n deterministic 2-d points and a DistAtMost over them.
func testPoints(n int, seed int64) ([][2]float64, DistAtMost) {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{rng.Float64(), rng.Float64()}
	}
	dist := func(i, j int, t float64) (float64, bool) {
		dx := pts[i][0] - pts[j][0]
		dy := pts[i][1] - pts[j][1]
		d := math.Sqrt(dx*dx + dy*dy)
		return d, d <= t
	}
	return pts, dist
}

// bruteKNN returns the k nearest node indices to query point q.
func bruteKNN(pts [][2]float64, q [2]float64, k int) []int32 {
	type nd struct {
		i int32
		d float64
	}
	all := make([]nd, len(pts))
	for i, p := range pts {
		dx, dy := p[0]-q[0], p[1]-q[1]
		all[i] = nd{int32(i), math.Sqrt(dx*dx + dy*dy)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].d != all[j].d {
			return all[i].d < all[j].d
		}
		return all[i].i < all[j].i
	})
	out := make([]int32, k)
	for i := range out {
		out[i] = all[i].i
	}
	return out
}

func queryEval(pts [][2]float64, q [2]float64) EvalBatch {
	return func(nodes []int32, t float64, d []float64, within []bool) error {
		for i, v := range nodes {
			dx, dy := pts[v][0]-q[0], pts[v][1]-q[1]
			d[i] = math.Sqrt(dx*dx + dy*dy)
			within[i] = d[i] <= t
		}
		return nil
	}
}

func TestBuildAndSearchRecall(t *testing.T) {
	const n, k, queries = 600, 10, 40
	pts, dist := testPoints(n, 7)
	g, _, err := Build(context.Background(), n, dist, Options{K: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != n {
		t.Fatalf("Len() = %d, want %d", g.Len(), n)
	}
	qrng := rand.New(rand.NewSource(99))
	hits, total := 0, 0
	for qi := 0; qi < queries; qi++ {
		q := [2]float64{qrng.Float64(), qrng.Float64()}
		exact := bruteKNN(pts, q, k)
		got, st, err := g.Search(context.Background(), queryEval(pts, q), 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.Hops == 0 || st.Evals == 0 {
			t.Fatalf("search did no work: %+v", st)
		}
		in := make(map[int32]bool, len(got))
		for _, c := range got {
			in[c.Node] = true
		}
		for _, e := range exact {
			total++
			if in[e] {
				hits++
			}
		}
	}
	if recall := float64(hits) / float64(total); recall < 0.95 {
		t.Fatalf("recall@%d = %.3f, want ≥ 0.95", k, recall)
	}
}

func TestSearchSortedAndDeduped(t *testing.T) {
	const n = 300
	pts, dist := testPoints(n, 5)
	g, _, err := Build(context.Background(), n, dist, Options{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := g.Search(context.Background(), queryEval(pts, [2]float64{0.5, 0.5}), 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 32 {
		t.Fatalf("got %d candidates, want ef=32", len(got))
	}
	seen := map[int32]bool{}
	for i, c := range got {
		if seen[c.Node] {
			t.Fatalf("duplicate node %d", c.Node)
		}
		seen[c.Node] = true
		if i > 0 && (got[i-1].Dist > c.Dist || (got[i-1].Dist == c.Dist && got[i-1].Node > c.Node)) {
			t.Fatalf("candidates not in (dist, node) order at %d", i)
		}
	}
}

// buildGoldens froze the single-goroutine NN-descent build before its
// phases fanned out: the sha256 of Encode() and the number of distance calls
// of a build over testPoints(2000, seed) with Options{K: k, Seed: seed}.
var buildGoldens = []struct {
	seed  int64
	k     int
	sha   string
	calls int64
}{
	{seed: 1, k: 8, sha: "4bd36f26b2881b214a1795c03bdc0080251b7dcfaa5cdb169758187f924fb2a6", calls: 188409},
	{seed: 1, k: 16, sha: "d743fe1eed67b5fc4961f6610d8f312d2e4b4e1289a78ad89a313b39d1652daf", calls: 392955},
	{seed: 2, k: 8, sha: "2b3bb65bb9e2a994c0e354f0b523dad8fdc0443740d6949e76a6059a9b92addc", calls: 186421},
	{seed: 2, k: 16, sha: "6c60828e5bed642b0aefe9a1782e0a99b7ab8c974ddee889efddee3a3b6660f4", calls: 391556},
}

// TestBuildDeterministicAcrossWorkers: at 1, 2 and 4 workers the build
// encodes to the frozen bytes and makes the frozen number of distance calls.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	const n = 2000
	for _, gc := range buildGoldens {
		_, dist := testPoints(n, gc.seed)
		for _, w := range []int{1, 2, 4} {
			var calls atomic.Int64
			counted := func(i, j int, thr float64) (float64, bool) {
				calls.Add(1)
				return dist(i, j, thr)
			}
			g, reported, err := build(context.Background(), n, counted, Options{K: gc.k, Seed: gc.seed}, w)
			if err != nil {
				t.Fatal(err)
			}
			if sha := fmt.Sprintf("%x", sha256.Sum256(g.Encode())); sha != gc.sha || calls.Load() != gc.calls {
				t.Errorf("seed %d, K %d, %d workers: sha256 %s after %d distance calls, want %s after %d",
					gc.seed, gc.k, w, sha, calls.Load(), gc.sha, gc.calls)
			}
			if reported != calls.Load() {
				t.Errorf("seed %d, K %d, %d workers: Build reported %d distance calls, the callback counted %d",
					gc.seed, gc.k, w, reported, calls.Load())
			}
		}
	}
}

func TestSearchDeterministic(t *testing.T) {
	const n = 400
	pts, dist := testPoints(n, 13)
	g, _, err := Build(context.Background(), n, dist, Options{K: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := [2]float64{0.25, 0.75}
	a, sa, err := g.Search(context.Background(), queryEval(pts, q), 48, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, sb, err := g.Search(context.Background(), queryEval(pts, q), 48, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) || sa != sb {
		t.Fatal("two identical searches disagree")
	}
}

func TestBuildCancelNoLeak(t *testing.T) {
	const n = 2000
	before := runtime.NumGoroutine()
	_, dist := testPoints(n, 17)
	slow := func(i, j int, thr float64) (float64, bool) {
		time.Sleep(10 * time.Microsecond)
		return dist(i, j, thr)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := build(ctx, n, slow, Options{K: 16}, 4)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Build did not return after cancel")
	}
	checkNoLeak(t, before)
}

// TestBuildCancelInLocalJoin cancels at the N-th distance call with a finite
// threshold. Initialization evaluates with +Inf only and leaves every list
// full, so that call lies inside the first local-join round, while its pairs
// are fanned out over the workers.
func TestBuildCancelInLocalJoin(t *testing.T) {
	const n, nth = 2000, 1000
	_, dist := testPoints(n, 19)
	for _, w := range []int{1, 2, 4} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var joined, calls atomic.Int64
		cancelling := func(i, j int, thr float64) (float64, bool) {
			calls.Add(1)
			if !math.IsInf(thr, 1) && joined.Add(1) == nth {
				cancel()
			}
			return dist(i, j, thr)
		}
		g, reported, err := build(ctx, n, cancelling, Options{K: 16, Seed: 3}, w)
		cancel()
		if !errors.Is(err, context.Canceled) || g != nil {
			t.Fatalf("%d workers: Build = (%v, %v), want (nil, context.Canceled)", w, g, err)
		}
		if reported != calls.Load() {
			t.Errorf("%d workers: canceled Build reported %d distance calls, the callback counted %d", w, reported, calls.Load())
		}
		checkNoLeak(t, before)
	}
}

// refInsert is insert as a full scan of the list: the reference for the
// cached worst entry.
func refInsert(list []nbr, k int, u int32, d float64) ([]nbr, bool) {
	wi := -1
	for i, e := range list {
		if e.idx == u {
			return list, false
		}
		if wi < 0 || nbrLess(list[wi], e) {
			wi = i
		}
	}
	cand := nbr{idx: u, d: d, fresh: true}
	if len(list) < k {
		return append(list, cand), true
	}
	if !nbrLess(cand, list[wi]) {
		return list, false
	}
	list[wi] = cand
	return list, true
}

// TestInsertMatchesScan offers random sequences to insert and to the
// scanning reference: every verdict, every list (in slot order) and every
// threshold must agree. Distances come from a handful of values and indices
// from a small range, so ties on distance and duplicate offers are common;
// now and then a list starts over, so lists keep filling.
func TestInsertMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, k := range []int{1, 2, 3, 8} {
		const n = 6
		b := &builder{n: n, k: k, lists: make([][]nbr, n), worstNbr: make([]nbr, n)}
		ref := make([][]nbr, n)
		for step := 0; step < 20000; step++ {
			v := int32(rng.Intn(n))
			if rng.Intn(100) == 0 { // start v over, so lists keep filling and ties keep arising
				b.lists[v], ref[v] = nil, nil
			}
			u := int32(rng.Intn(3 * k))
			d := float64(rng.Intn(5))
			got := b.insert(v, u, d)
			var want bool
			ref[v], want = refInsert(ref[v], k, u, d)
			if got != want || !reflect.DeepEqual(b.lists[v], ref[v]) {
				t.Fatalf("K %d, step %d: insert(%d, %d, %v) = %v, list %v; the scan gives %v, list %v",
					k, step, v, u, d, got, b.lists[v], want, ref[v])
			}
			wantThr := math.Inf(1)
			if len(ref[v]) == k {
				wantThr = ref[v][0].d
				for _, e := range ref[v] {
					wantThr = math.Max(wantThr, e.d)
				}
			}
			if thr := b.worst(v); thr != wantThr {
				t.Fatalf("K %d, step %d: worst(%d) = %v, the scan gives %v", k, step, v, thr, wantThr)
			}
		}
	}
}

// checkNoLeak waits up to five seconds for the goroutine count to fall back
// to before.
func checkNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, got)
	}
}

func TestSearchCancelReturnsPartial(t *testing.T) {
	const n = 500
	pts, dist := testPoints(n, 23)
	g, _, err := Build(context.Background(), n, dist, Options{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	hops := 0
	eval := func(nodes []int32, thr float64, d []float64, within []bool) error {
		hops++
		if hops == 3 {
			cancel()
		}
		return queryEval(pts, [2]float64{0.5, 0.5})(nodes, thr, d, within)
	}
	got, _, err := g.Search(ctx, eval, 64, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(got) == 0 {
		t.Fatal("canceled search returned no partial candidates")
	}
}

func TestBuildTinyInputs(t *testing.T) {
	_, dist := testPoints(4, 1)
	for n := 0; n <= 4; n++ {
		g, _, err := Build(context.Background(), n, dist, Options{K: 16})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if n == 0 {
			if g.Len() != 0 {
				t.Fatalf("n=0: Len() = %d", g.Len())
			}
			continue
		}
		if g.Len() != n {
			t.Fatalf("n=%d: Len() = %d", n, g.Len())
		}
		for v := int32(0); int(v) < n; v++ {
			for _, u := range g.Neighbors(v) {
				if u == v || int(u) >= n || u < -1 {
					t.Fatalf("n=%d: bad neighbor %d of %d", n, u, v)
				}
			}
		}
	}
}
