package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"spbtree/internal/metric"
	"spbtree/internal/page"
	"spbtree/internal/sfc"
)

// resolverFixture is a tree whose RAF sits on a FaultStore with caching off,
// so every record read reaches the store, plus — when delta is set — a live
// write buffer: tombstones over base records, buffered inserts under new IDs
// and re-inserted base IDs (the buffered version shadows the base record).
type resolverFixture struct {
	tree  *Tree
	data  *page.FaultStore
	dist  metric.DistanceFunc
	base  []metric.Object // what the tree was built from
	live  []metric.Object // base − shadowed + buffered
	query metric.Object
}

func newResolverFixture(t *testing.T, delta bool) *resolverFixture {
	t.Helper()
	const dim = 5
	objs := vectorSet(600, dim, 11)
	fx := &resolverFixture{
		data:  page.NewFaultStore(page.NewMemStore(), -1),
		dist:  metric.L2(dim),
		query: metric.NewVector(1<<40, []float64{0.45, 0.5, 0.55, 0.5, 0.45}),
	}
	var err error
	fx.tree, err = Build(objs, Options{
		Distance: fx.dist, Codec: metric.VectorCodec{Dim: dim},
		DataStore: fx.data, CacheSize: -1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fx.tree.Close() })
	fx.base, fx.live = objs, objs
	if delta {
		extra := vectorSet(30, dim, 12)
		for i, o := range extra {
			extra[i] = metric.NewVector(uint64(100000+i), o.(*metric.Vector).Coords)
		}
		fx.live = addWriteBuffer(t, fx.tree, objs, extra)
	}
	return fx
}

// addWriteBuffer gives tree a live write buffer over base, the objects it was
// built from: every fifth is tombstoned, every twenty-fifth re-inserted under
// its own ID (the buffered version shadows the base record), and extra is
// inserted under new IDs. It returns the live set: base − shadowed + buffered.
func addWriteBuffer(t *testing.T, tree *Tree, base, extra []metric.Object) (live []metric.Object) {
	t.Helper()
	tree.wbuf = newDeltaState()
	cell := func(o metric.Object) uint64 {
		vec := make([]float64, len(tree.pivots))
		tree.phi(o, vec)
		cells := make(sfc.Point, len(vec))
		tree.cells(vec, cells)
		return sfc.Pack(cells, tree.bits)
	}
	lsn := uint64(0)
	insert := func(o metric.Object) {
		lsn++
		if err := tree.applyInsertLocked(o, cell(o), lsn); err != nil {
			t.Fatal(err)
		}
		live = append(live, o)
	}
	for i, o := range base {
		switch {
		case i%5 == 2: // tombstone
			lsn++
			if err := tree.applyDeleteLocked(o.ID(), cell(o), lsn); err != nil {
				t.Fatal(err)
			}
		case i%25 == 0: // re-insert of a base ID
			insert(o)
		default:
			live = append(live, o)
		}
	}
	for _, o := range extra {
		insert(o)
	}
	if tree.count != len(live) {
		t.Fatalf("write buffer: tree counts %d live objects, want %d", tree.count, len(live))
	}
	return live
}

// resolverOutcome is what one execution of a caller under a fault returned.
type resolverOutcome struct {
	res []Result
	qs  QueryStats
	err error
}

// TestResolveBlockReadFailure covers the read-failure contract of every
// caller of resolveBlock. A data page is made unreadable, so the copy of a
// block that touches it fails on that page's records and copies on past
// them: the query must stop at the scan
// position entry-at-a-time execution stops at — same partial results, same
// error, same Verified / Compdists / Abandoned / TombstonesSkipped /
// DeltaCandidates / Lemma2Included as the goldens, which are that execution
// frozen (golden_test.go) — and the partials must be true answers over the
// live set. Every data page takes a turn as the failing one, with the write
// buffer empty and live.
func TestResolveBlockReadFailure(t *testing.T) {
	defer writeGoldens(t)
	const k = 6
	type caller struct {
		name   string
		radius bool // answers are bounded by r, not by k
		from   int  // query from this base object; 0 = the fixture's own query point
		run    func(fx *resolverFixture, q metric.Object, r float64) resolverOutcome
	}
	knn := func(fx *resolverFixture, q metric.Object, _ float64) (o resolverOutcome) {
		o.res, o.qs, o.err = fx.tree.Query(context.Background(), Query{Op: OpKNN, Q: q, K: k})
		return o
	}
	callers := []caller{
		{"range", true, 0, func(fx *resolverFixture, q metric.Object, r float64) (o resolverOutcome) {
			o.res, o.qs, o.err = fx.tree.Query(context.Background(), Query{Op: OpRange, Q: q, Radius: r})
			return o
		}},
		{"knn-greedy", false, 0, knn},
		// From base object 16, with data page 2 unreadable, the greedy leaf
		// scan prunes the unreadable record at its turn and goes on to
		// readable ones: entry-at-a-time execution never reads it, and the
		// query succeeds.
		{"knn-greedy-skip", false, 16, knn},
	}
	for _, c := range callers {
		for _, delta := range []bool{false, true} {
			c, delta := c, delta
			t.Run(fmt.Sprintf("%s/delta=%v", c.name, delta), func(t *testing.T) {
				fx := newResolverFixture(t, delta)
				r := 0.3 * fx.dist.MaxDistance()
				q := fx.query
				if c.from > 0 {
					q = fx.base[c.from]
				}
				truth := bfRangeDists(fx.live, q, fx.dist.MaxDistance(), fx.dist)
				if c.radius {
					truth = bfRangeDists(fx.live, q, r, fx.dist)
				}
				failed, batched := 0, int64(0)
				for pg := 0; pg < fx.tree.raf.PagesUsed(); pg++ {
					fx.data.FailPage(page.ID(pg), page.OpRead)
					o := c.run(fx, q, r)
					fx.data.ClearPageFaults()

					label := fmt.Sprintf("fault/%s/delta=%v/page %d", c.name, delta, pg)
					if o.err != nil {
						failed++
						if !errors.Is(o.err, page.ErrInjected) {
							t.Fatalf("%s: err = %v, want the injected fault", label, o.err)
						}
					}
					// The counters entry-at-a-time execution shares with a
					// failed block; the traversal's scan counts run ahead of
					// the failure by up to one block and are left out.
					var row golden
					row.add(o.res, QueryStats{
						Verified: o.qs.Verified, Compdists: o.qs.Compdists, Abandoned: o.qs.Abandoned,
						TombstonesSkipped: o.qs.TombstonesSkipped, DeltaCandidates: o.qs.DeltaCandidates,
						Lemma2Included: o.qs.Lemma2Included,
					}, o.err)
					checkGolden(t, label, row)
					batched += o.qs.BatchedCandidates
					subsetOfTruth(t, label, o.res, truth)
				}
				if failed == 0 {
					t.Fatal("no failing page was ever reached: the replay was not exercised")
				}
				// Blocks on healthy pages must have gone through the kernel.
				if batched == 0 {
					t.Fatal("no candidate went through resolveBlock")
				}
				if delta && c.from == 0 {
					if o := c.run(fx, q, r); o.err != nil || o.qs.TombstonesSkipped == 0 || o.qs.DeltaCandidates == 0 {
						t.Fatalf("healthy run over the write buffer: err %v, %d tombstones skipped, %d delta candidates",
							o.err, o.qs.TombstonesSkipped, o.qs.DeltaCandidates)
					}
				}
			})
		}
	}
}

// TestKNNChargesLifetimeCounter: a kNN advances the tree's lifetime distance
// counter by exactly its QueryStats.Compdists — healthy, over a write buffer,
// and with each data page unreadable in turn, where a block ends at its
// unreadable record or, in a leaf that prunes that record, resumes after it
// (the rows of TestResolveBlockReadFailure). The counter is charged once per
// block, so a resumed block must charge neither less nor twice.
func TestKNNChargesLifetimeCounter(t *testing.T) {
	for _, delta := range []bool{false, true} {
		fx := newResolverFixture(t, delta)
		for _, from := range []int{0, 16} {
			q := fx.query
			if from > 0 {
				q = fx.base[from]
			}
			check := func(label string) {
				t.Helper()
				before := fx.tree.dist.Count()
				_, qs, err := fx.tree.Query(context.Background(), Query{Op: OpKNN, Q: q, K: 6})
				if err != nil && !errors.Is(err, page.ErrInjected) {
					t.Fatalf("%s: %v", label, err)
				}
				if got := fx.tree.dist.Count() - before; got != qs.Compdists || qs.Compdists == 0 {
					t.Errorf("%s: the lifetime counter advanced by %d, QueryStats.Compdists = %d (err %v)", label, got, qs.Compdists, err)
				}
			}
			check(fmt.Sprintf("delta=%v/from %d/healthy", delta, from))
			for pg := 0; pg < fx.tree.raf.PagesUsed(); pg++ {
				fx.data.FailPage(page.ID(pg), page.OpRead)
				check(fmt.Sprintf("delta=%v/from %d/page %d unreadable", delta, from, pg))
				fx.data.ClearPageFaults()
			}
		}
	}
}

// keptAnswer is one query's answer held on to while later queries run: the
// results as returned, a copy of each made at once (encoded payload and all),
// and how to check them against brute force.
type keptAnswer struct {
	label string
	query metric.Object
	res   []Result
	snap  []string
	check func(t *testing.T, label string, res []Result)
}

func snapshotResult(r Result) string {
	return fmt.Sprintf("%d %v %v %x", r.Object.ID(), r.Dist, r.Exact, r.Object.AppendBinary(nil))
}

// TestResultsOwnTheirObjects is the slot rule (DESIGN.md §9.7) from the
// caller's side: candidates are decoded into slots that the next block
// overwrites, so every object that leaves a query — a kNN result, a range
// result verified or included by Lemma 2, a graph-search result, a partial
// answer returned with an error — must have been taken out of its slot. The test
// keeps such answers, runs fifty more queries on the same goroutine (same
// pooled scratch, every slot overwritten many times), then requires each
// kept result to equal the copy made when it was returned, to lie at its
// reported distance from its query, and to be the brute-force answer.
func TestResultsOwnTheirObjects(t *testing.T) {
	const n, k = 1500, 8
	for _, tc := range []struct {
		name  string
		objs  []metric.Object
		dist  metric.DistanceFunc
		codec metric.Codec
	}{
		{"vector", vectorSet(n+60, 6, 71), metric.L2(6), metric.VectorCodec{Dim: 6}},
		{"vector32-greedy", vector32Set(n+60, 6, 72), metric.L2(6), metric.Vector32Codec{Dim: 6}},
		{"words", wordSet(n+60, 73), metric.EditDistance{MaxLen: 15}, metric.StrCodec{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			objs, queries := tc.objs[:n], tc.objs[n:]
			data := page.NewFaultStore(page.NewMemStore(), -1)
			tree, err := Build(objs, Options{
				Distance: tc.dist, Codec: tc.codec, DataStore: data,
				CacheSize: 8, NumPivots: 3, Seed: 71,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer tree.Close()
			if err := tree.BuildGraph(GraphOptions{Seed: 71}); err != nil {
				t.Fatal(err)
			}
			r := 0.12 * tc.dist.MaxDistance()
			if tc.dist.Discrete() {
				r = 3
			}

			trueDist := func(t *testing.T, label string, q metric.Object, res []Result) {
				t.Helper()
				for i, x := range res {
					d := tc.dist.Distance(q, x.Object)
					if (x.Exact && d != x.Dist) || d > x.Dist {
						t.Errorf("%s: result %d (id %d) reports distance %v (exact=%v), its object is at %v",
							label, i, x.Object.ID(), x.Dist, x.Exact, d)
					}
				}
			}
			topK := func(q metric.Object) func(*testing.T, string, []Result) {
				return func(t *testing.T, label string, res []Result) {
					t.Helper()
					want := bfKNNDists(objs, q, k, tc.dist)
					if len(res) != len(want) {
						t.Fatalf("%s: %d results, want %d", label, len(res), len(want))
					}
					for i, x := range res {
						if x.Dist != want[i] {
							t.Errorf("%s: rank %d at distance %v, brute force %v", label, i, x.Dist, want[i])
						}
					}
				}
			}
			subset := func(q metric.Object, r float64) func(*testing.T, string, []Result) {
				return func(t *testing.T, label string, res []Result) {
					t.Helper()
					subsetOfTruth(t, label, res, bfRangeDists(objs, q, r, tc.dist))
				}
			}

			var kept []keptAnswer
			keep := func(label string, q metric.Object, res []Result, check func(*testing.T, string, []Result)) {
				a := keptAnswer{label: label, query: q, res: res, check: check}
				for _, x := range res {
					a.snap = append(a.snap, snapshotResult(x))
				}
				kept = append(kept, a)
			}
			var lemma2 int64
			for qi, q := range queries[:6] {
				res, err := tree.KNN(q, k)
				if err != nil {
					t.Fatal(err)
				}
				keep(fmt.Sprintf("knn %d", qi), q, res, topK(q))

				res, qs, err := tree.Query(context.Background(), Query{Op: OpRange, Q: q, Radius: r, Timed: true})
				if err != nil {
					t.Fatal(err)
				}
				lemma2 += qs.Lemma2Included
				want := bfRange(objs, q, r, tc.dist)
				keep(fmt.Sprintf("range %d", qi), q, res, func(t *testing.T, label string, res []Result) {
					t.Helper()
					if got := resultIDs(res); len(got) != len(want) || len(res) != len(want) {
						t.Errorf("%s: %d results (%d distinct), brute force %d", label, len(res), len(got), len(want))
					}
					subset(q, r)(t, label, res)
				})

				if res, _, err = tree.Query(context.Background(), Query{Op: OpKNNGraph, Q: q, K: k}); err != nil {
					t.Fatal(err)
				}
				keep(fmt.Sprintf("graph %d", qi), q, res, subset(q, math.Inf(1)))
			}
			if lemma2 == 0 && !tc.dist.Discrete() {
				t.Error("no range result was included by Lemma 2: the proved path is not covered")
			}

			// Partial answers: fail each data page in turn and keep what the
			// queries return alongside their error.
			partials := 0
			q := queries[6]
			for pg := 0; pg < tree.raf.PagesUsed(); pg++ {
				data.FailPage(page.ID(pg), page.OpRead)
				tree.dataCache.Flush() // a cached copy would hide the fault
				res, err := tree.KNN(q, k)
				if err != nil && len(res) > 0 {
					if !errors.Is(err, page.ErrInjected) {
						t.Fatalf("page %d: err = %v, want the injected fault", pg, err)
					}
					keep(fmt.Sprintf("knn partial, page %d", pg), q, res, subset(q, math.Inf(1)))
					partials++
				}
				res, err = tree.RangeQuery(q, 2*r)
				if err != nil && len(res) > 0 {
					keep(fmt.Sprintf("range partial, page %d", pg), q, res, subset(q, 2*r))
					partials++
				}
				res, _, err = tree.Query(context.Background(), Query{Op: OpKNNGraph, Q: q, K: k})
				if err != nil && len(res) > 0 {
					keep(fmt.Sprintf("graph partial, page %d", pg), q, res, subset(q, math.Inf(1)))
					partials++
				}
				data.ClearPageFaults()
			}
			if partials == 0 {
				t.Fatal("no query returned a partial answer with its error")
			}

			// Fifty more queries.
			for i := 0; i < 50; i++ {
				q := queries[10+i]
				if _, err := tree.KNN(q, k); err != nil {
					t.Fatal(err)
				}
				if _, err := tree.RangeQuery(q, r); err != nil {
					t.Fatal(err)
				}
				if _, _, err := tree.Query(context.Background(), Query{Op: OpKNNGraph, Q: q, K: k}); err != nil {
					t.Fatal(err)
				}
			}

			for _, a := range kept {
				for i, x := range a.res {
					if got := snapshotResult(x); got != a.snap[i] {
						t.Errorf("%s: result %d changed after it was returned:\n got %s\nwant %s", a.label, i, got, a.snap[i])
					}
				}
				trueDist(t, a.label, a.query, a.res)
				a.check(t, a.label, a.res)
			}
		})
	}
}
