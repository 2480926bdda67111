package core

import (
	"context"
	"math"
	"sort"
	"sync"
	"testing"

	"spbtree/internal/metric"
	"spbtree/internal/sfc"
)

// TestBoundedMatchesExact is the kernel layer's end-to-end contract
// (DESIGN.md §10): verification hands the kernel its live bound, and what
// comes back is the exact scan's answer — at the boundary too. For every
// setup, range queries at a radius that is exactly some object's distance,
// and at the float just below it, return the brute-force ID set; every exact
// result's distance is bit-identical to Distance; kNN returns the brute-force
// distances; and only a metric with a bounded kernel ever abandons.
func TestBoundedMatchesExact(t *testing.T) {
	for _, s := range setups() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			tree := buildSetup(t, s)
			defer tree.Close()
			for qi, q := range s.objs[:8] {
				at := s.dist.Distance(q, s.objs[len(s.objs)-1-qi])
				for _, r := range []float64{at, math.Nextafter(at, 0)} {
					res, qs, err := tree.Query(context.Background(), Query{Op: OpRange, Q: q, Radius: r})
					if err != nil {
						t.Fatal(err)
					}
					want := bfRangeDists(s.objs, q, r, s.dist)
					if len(res) != len(want) {
						t.Fatalf("query %d, r=%v: %d results, brute force %d", qi, r, len(res), len(want))
					}
					subsetOfTruth(t, s.name, res, want)
					for _, x := range res {
						if !x.Exact && (x.Dist < want[x.Object.ID()] || x.Dist > r) {
							t.Fatalf("query %d, r=%v: id %d included with bound %v, true distance %v",
								qi, r, x.Object.ID(), x.Dist, want[x.Object.ID()])
						}
					}
					checkAbandoned(t, s, qs)
				}
				res, qs, err := tree.Query(context.Background(), Query{Op: OpKNN, Q: q, K: 6})
				if err != nil {
					t.Fatal(err)
				}
				want := bfKNNDists(s.objs, q, 6, s.dist)
				if len(res) != len(want) {
					t.Fatalf("query %d: kNN returned %d, want %d", qi, len(res), len(want))
				}
				for i, x := range res {
					if x.Dist != want[i] || x.Dist != s.dist.Distance(q, x.Object) {
						t.Fatalf("query %d: rank %d at distance %v, brute force %v", qi, i, x.Dist, want[i])
					}
				}
				checkAbandoned(t, s, qs)
			}
		})
	}
}

// checkAbandoned: abandoned evaluations are verified, discarded ones, and a
// metric without a bounded kernel has none.
func checkAbandoned(t *testing.T, s setup, qs QueryStats) {
	t.Helper()
	if qs.Abandoned > qs.Discarded || qs.Discarded > qs.Verified {
		t.Fatalf("%s: abandoned %d > discarded %d > verified %d", qs.Op, qs.Abandoned, qs.Discarded, qs.Verified)
	}
	if !metric.IsBounded(s.dist) && qs.Abandoned != 0 {
		t.Fatalf("%s: %d evaluations abandoned by a metric that cannot abandon", qs.Op, qs.Abandoned)
	}
}

// TestBoundedParallelMatchesSerial: queries are the unit of parallelism
// (DESIGN.md §9.1), so the identity that has to hold is across queries. The
// same range, kNN and budgeted-kNN queries issued from four goroutines at
// once — sharing the tree's read lock, its page caches and the scratch pool
// their prepared kernels and candidate blocks come from — return
// byte-identical results and identical verification counters (Abandoned
// included) to issuing them one after another, for every setup and both
// traversal strategies. Run with -race.
func TestBoundedParallelMatchesSerial(t *testing.T) {
	for _, s := range setups() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			for _, trav := range []TraversalStrategy{Incremental, Greedy} {
				opts := s.opts
				opts.Traversal = trav
				opts.Distance = s.dist
				tree, err := Build(s.objs, opts)
				if err != nil {
					t.Fatalf("%s: Build: %v", s.name, err)
				}
				maxD := s.dist.MaxDistance()

				type outcome struct {
					res []Result
					qs  QueryStats
					err error
				}
				tags := []string{"range", "knn1", "knn8", "approx"}
				run := func(job int) (o outcome) {
					q := s.objs[job/len(tags)]
					switch tags[job%len(tags)] {
					case "range":
						o.res, o.qs, o.err = tree.Query(context.Background(), Query{Op: OpRange, Q: q, Radius: 0.12 * maxD, Timed: true})
					case "knn1":
						o.res, o.qs, o.err = tree.Query(context.Background(), Query{Op: OpKNN, Q: q, K: 1, Timed: true})
					case "knn8":
						o.res, o.qs, o.err = tree.Query(context.Background(), Query{Op: OpKNN, Q: q, K: 8, Timed: true})
					case "approx":
						o.res, o.qs, o.err = tree.Query(context.Background(), Query{Op: OpKNNApprox, Q: q, K: 5, MaxVerify: 40, Timed: true})
					}
					return o
				}
				serial := make([]outcome, 5*len(tags))
				for job := range serial {
					serial[job] = run(job)
				}
				const clients = 4
				parallel := make([]outcome, len(serial))
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						for job := c; job < len(parallel); job += clients {
							parallel[job] = run(job)
						}
					}(c)
				}
				wg.Wait()
				for job := range serial {
					label := s.name + "/" + trav.String() + "/" + tags[job%len(tags)]
					if serial[job].err != nil || parallel[job].err != nil {
						t.Fatalf("%s: serial err %v, parallel err %v", label, serial[job].err, parallel[job].err)
					}
					sameResults(t, label, serial[job].res, parallel[job].res)
					sameVerification(t, label, serial[job].qs, parallel[job].qs)
				}
				tree.Close()
			}
		})
	}
}

// TestBoundedJoinMatchesExact checks Algorithm 3's ε-bounded evaluation
// against a brute-force nested loop: the same pairs at bit-identical
// distances, one verification per reported or discarded pair, and every
// discarded pair abandoned.
func TestBoundedJoinMatchesExact(t *testing.T) {
	const dim = 4
	dist := metric.L2(dim)
	build := func(objs []metric.Object, seed int64, share *Tree) *Tree {
		tree, err := Build(objs, Options{
			Distance: dist, Codec: metric.VectorCodec{Dim: dim},
			NumPivots: 3, Curve: sfc.ZOrder, Seed: seed, ShareMapping: share,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	qObjs, oObjs := vectorSet(300, dim, 71), vectorSet(250, dim, 72)
	tq := build(qObjs, 71, nil)
	to := build(oObjs, 72, tq)
	defer tq.Close()
	defer to.Close()
	eps := 0.08 * dist.MaxDistance()

	want := map[[2]uint64]float64{}
	for _, q := range qObjs {
		for _, o := range oObjs {
			if d := dist.Distance(q, o); d <= eps {
				want[[2]uint64{q.ID(), o.ID()}] = d
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("join baseline empty; widen eps")
	}

	got, qs, err := Join(context.Background(), tq, to, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d pairs, want %d", len(got), len(want))
	}
	for i, p := range got {
		if d, ok := want[[2]uint64{p.Q.ID(), p.O.ID()}]; !ok || d != p.Dist {
			t.Fatalf("pair %d = (%d,%d,%v), brute force (%v, present=%v)", i, p.Q.ID(), p.O.ID(), p.Dist, d, ok)
		}
	}
	if qs.Results != len(want) || qs.Verified != int64(qs.Results)+qs.Discarded {
		t.Fatalf("join counters: results=%d verified=%d discarded=%d over %d pairs", qs.Results, qs.Verified, qs.Discarded, len(want))
	}
	if qs.Abandoned == 0 || qs.Abandoned != qs.Discarded {
		t.Fatalf("join Abandoned = %d, Discarded = %d: every discarded pair should abandon", qs.Abandoned, qs.Discarded)
	}
}

// TestNearestIterWithin pins the limited iterator: it emits exactly the
// range-query answer set in ascending distance order (objects at the limit
// included), and a +Inf limit degenerates to the full NearestIter scan.
func TestNearestIterWithin(t *testing.T) {
	s := setupNamed(t, "vectors-L2-hilbert")
	tree := buildSetup(t, s)
	defer tree.Close()
	q := s.objs[11]
	limit := 0.2 * s.dist.MaxDistance()

	want, err := tree.RangeQuery(q, limit)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].Dist != want[j].Dist {
			return want[i].Dist < want[j].Dist
		}
		return want[i].Object.ID() < want[j].Object.ID()
	})
	// Range answers proved by Lemma 2 carry upper bounds, not exact
	// distances; recompute so the comparison is distance-exact.
	for i := range want {
		want[i].Dist = s.dist.Distance(q, want[i].Object)
		want[i].Exact = true
	}

	it := tree.NearestIterWithin(q, limit)
	var got []Result
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, r)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("NearestIterWithin emitted %d objects, range query found %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Object.ID() != want[i].Object.ID() || got[i].Dist != want[i].Dist {
			t.Fatalf("item %d: got (id=%d d=%v), want (id=%d d=%v)",
				i, got[i].Object.ID(), got[i].Dist, want[i].Object.ID(), want[i].Dist)
		}
		if got[i].Dist > limit {
			t.Fatalf("item %d at distance %v beyond limit %v", i, got[i].Dist, limit)
		}
	}

	full := tree.NearestIterWithin(q, math.Inf(1))
	n := 0
	for {
		if _, ok := full.Next(); !ok {
			break
		}
		n++
	}
	if err := full.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(s.objs) {
		t.Fatalf("+Inf limit enumerated %d objects, want %d", n, len(s.objs))
	}
}
