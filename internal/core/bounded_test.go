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
// (DESIGN.md §10): toggling threshold-aware kernels on the same tree changes
// no observable output — byte-identical results and identical Verified /
// Compdists / Discarded counters for range and kNN — while Abandoned stays
// zero with kernels off and becomes positive on workloads where early
// abandoning fires.
func TestBoundedMatchesExact(t *testing.T) {
	totalAbandoned := map[string]int64{}
	for _, s := range setups() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			tree := buildSetup(t, s)
			defer tree.Close()
			if !tree.BoundedKernels() {
				t.Fatalf("%s: bounded kernels not enabled by Build for %T", s.name, s.dist)
			}
			maxD := s.dist.MaxDistance()
			queries := s.objs[:8]

			type outcome struct {
				res []Result
				qs  QueryStats
			}
			collect := func() []outcome {
				var out []outcome
				for _, q := range queries {
					res, qs, err := tree.Query(context.Background(), Query{Op: OpRange, Q: q, Radius: 0.15 * maxD, Timed: true})
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, outcome{res, qs})
					res, qs, err = tree.Query(context.Background(), Query{Op: OpKNN, Q: q, K: 6, Timed: true})
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, outcome{res, qs})
				}
				return out
			}

			tree.SetBoundedKernels(false)
			exact := collect()
			for i, o := range exact {
				if o.qs.Abandoned != 0 {
					t.Fatalf("query %d: Abandoned = %d with kernels disabled", i, o.qs.Abandoned)
				}
			}
			tree.SetBoundedKernels(true)
			bounded := collect()

			for i := range exact {
				label := s.name + "/toggle"
				sameResults(t, label, exact[i].res, bounded[i].res)
				e, b := exact[i].qs, bounded[i].qs
				if e.Verified != b.Verified || e.Compdists != b.Compdists || e.Discarded != b.Discarded {
					t.Fatalf("query %d: counters diverge across toggle:\nexact:   verified=%d compdists=%d discarded=%d\nbounded: verified=%d compdists=%d discarded=%d",
						i, e.Verified, e.Compdists, e.Discarded, b.Verified, b.Compdists, b.Discarded)
				}
				totalAbandoned[s.name] += b.Abandoned
			}
		})
	}
	// Edit distance over words abandons aggressively (band collapse on short
	// thresholds); if this is ever zero the kernels are not actually wired in.
	if totalAbandoned["words-edit"] == 0 {
		t.Error("words-edit: no evaluation abandoned with bounded kernels on")
	}
}

// TestBoundedParallelMatchesSerial: queries are the unit of parallelism
// (DESIGN.md §9.1), so the identity that has to hold is across queries. The
// same range, kNN and budgeted-kNN queries issued from four goroutines at
// once — sharing the tree's read lock, its page caches and the scratch pool
// their prepared kernels and candidate blocks come from — return
// byte-identical results and identical verification counters (Abandoned
// included: bounded kernels are on) to issuing them one after another, for
// every setup and both traversal strategies. Run with -race.
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
				tree.SetBoundedKernels(true)
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

// TestBoundedJoinMatchesExact checks Algorithm 3 under bounded kernels: the
// ε-bounded evaluation returns the same pairs and counters as exact
// evaluation, and abandons some of them.
func TestBoundedJoinMatchesExact(t *testing.T) {
	const dim = 4
	build := func(objs []metric.Object, seed int64, share *Tree) *Tree {
		tree, err := Build(objs, Options{
			Distance: metric.L2(dim), Codec: metric.VectorCodec{Dim: dim},
			NumPivots: 3, Curve: sfc.ZOrder, Seed: seed, ShareMapping: share,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	tq := build(vectorSet(300, dim, 71), 71, nil)
	to := build(vectorSet(250, dim, 72), 72, tq)
	defer tq.Close()
	defer to.Close()
	eps := 0.08 * metric.L2(dim).MaxDistance()

	tq.SetBoundedKernels(false)
	to.SetBoundedKernels(false)
	want, wantQS, err := JoinWithStats(tq, to, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("join baseline empty; widen eps")
	}
	if wantQS.Abandoned != 0 {
		t.Fatalf("exact join Abandoned = %d, want 0", wantQS.Abandoned)
	}

	tq.SetBoundedKernels(true)
	to.SetBoundedKernels(true)
	got, gotQS, err := JoinWithStats(tq, to, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Q.ID() != got[i].Q.ID() || want[i].O.ID() != got[i].O.ID() || want[i].Dist != got[i].Dist {
			t.Fatalf("pair %d = (%d,%d,%v), want (%d,%d,%v)", i,
				got[i].Q.ID(), got[i].O.ID(), got[i].Dist, want[i].Q.ID(), want[i].O.ID(), want[i].Dist)
		}
	}
	if gotQS.Verified != wantQS.Verified || gotQS.Compdists != wantQS.Compdists || gotQS.Results != wantQS.Results {
		t.Fatalf("bounded join counters (verified=%d compdists=%d results=%d) != exact (%d, %d, %d)",
			gotQS.Verified, gotQS.Compdists, gotQS.Results, wantQS.Verified, wantQS.Compdists, wantQS.Results)
	}
	if gotQS.Abandoned == 0 || gotQS.Abandoned != gotQS.Discarded {
		t.Fatalf("bounded join Abandoned = %d, Discarded = %d: every discarded pair should abandon", gotQS.Abandoned, gotQS.Discarded)
	}
}

// TestNearestIterWithin pins the limited iterator: it emits exactly the
// range-query answer set in ascending distance order (objects at the limit
// included), and a +Inf limit degenerates to the full NearestIter scan.
func TestNearestIterWithin(t *testing.T) {
	s := setups()[0]
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

// TestDisableBoundedKernelsOption pins the Options escape hatch: a tree
// built with DisableBoundedKernels never abandons and reports
// BoundedKernels() == false, and SetBoundedKernels(true) on a metric with no
// kernel stays off.
func TestDisableBoundedKernelsOption(t *testing.T) {
	s := setups()[2] // words-edit: the workload where abandoning fires
	opts := s.opts
	opts.Distance = s.dist
	opts.DisableBoundedKernels = true
	tree, err := Build(s.objs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if tree.BoundedKernels() {
		t.Fatal("DisableBoundedKernels did not disable kernels")
	}
	_, qs, err := tree.Query(context.Background(), Query{Op: OpRange, Q: s.objs[0], Radius: 2, Timed: true})
	if err != nil {
		t.Fatal(err)
	}
	if qs.Abandoned != 0 {
		t.Fatalf("Abandoned = %d on a kernel-disabled tree", qs.Abandoned)
	}
	tree.SetBoundedKernels(true)
	if !tree.BoundedKernels() {
		t.Fatal("SetBoundedKernels(true) did not re-enable for a bounded metric")
	}

	// A metric with no kernel can never be switched on.
	objs := make([]metric.Object, 64)
	for i := range objs {
		objs[i] = metric.NewSeq(uint64(i), wordSet(1, int64(i))[0].(*metric.Str).S+"ACGTACGT")
	}
	plain, err := Build(objs, Options{Distance: metric.TrigramAngular{}, Codec: metric.SeqCodec{}, NumPivots: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if plain.BoundedKernels() {
		t.Fatal("TrigramAngular reported bounded kernels")
	}
	plain.SetBoundedKernels(true)
	if plain.BoundedKernels() {
		t.Fatal("SetBoundedKernels(true) enabled kernels for an unbounded metric")
	}
}
