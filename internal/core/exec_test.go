package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"spbtree/internal/metric"
	"spbtree/internal/page"
	"spbtree/internal/sfc"
)

// sameResults asserts two answer sets are byte-identical: same order, ids,
// distances and exactness flags.
func sameResults(t *testing.T, label string, serial, parallel []Result) {
	t.Helper()
	if len(serial) != len(parallel) {
		t.Fatalf("%s: serial %d results, parallel %d", label, len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Object.ID() != p.Object.ID() || s.Dist != p.Dist || s.Exact != p.Exact {
			t.Fatalf("%s: result %d: serial (id=%d d=%v exact=%v), parallel (id=%d d=%v exact=%v)",
				label, i, s.Object.ID(), s.Dist, s.Exact, p.Object.ID(), p.Dist, p.Exact)
		}
	}
}

// sameVerification asserts the verification-stage counters — the ones
// DESIGN.md §9 guarantees are identical in every worker mode — agree.
func sameVerification(t *testing.T, label string, serial, parallel QueryStats) {
	t.Helper()
	if serial.Verified != parallel.Verified ||
		serial.Compdists != parallel.Compdists ||
		serial.Lemma2Included != parallel.Lemma2Included ||
		serial.Discarded != parallel.Discarded ||
		serial.Abandoned != parallel.Abandoned ||
		serial.Results != parallel.Results {
		t.Fatalf("%s: verification counters diverge:\nserial:   verified=%d compdists=%d lemma2=%d discarded=%d abandoned=%d results=%d\nparallel: verified=%d compdists=%d lemma2=%d discarded=%d abandoned=%d results=%d",
			label,
			serial.Verified, serial.Compdists, serial.Lemma2Included, serial.Discarded, serial.Abandoned, serial.Results,
			parallel.Verified, parallel.Compdists, parallel.Lemma2Included, parallel.Discarded, parallel.Abandoned, parallel.Results)
	}
	// Range queries form identical candidate blocks in every worker mode, so
	// BatchedCandidates is part of the §9 identity there; kNN block shapes
	// depend on bound evolution, so only OpRange is pinned (DESIGN.md §13).
	// This is also the guard against a silent fallback to the scalar path: a
	// parallel engine that stops batching diverges from the serial count.
	if serial.Op == OpRange && serial.BatchedCandidates != parallel.BatchedCandidates {
		t.Fatalf("%s: range BatchedCandidates diverge: serial=%d parallel=%d",
			label, serial.BatchedCandidates, parallel.BatchedCandidates)
	}
}

// TestParallelMatchesSerial is the engine's core property: for every setup
// (curves, metrics, codecs), both traversal strategies and K ∈ {2,4,8}
// workers, range, kNN and budgeted kNN return byte-identical results and
// identical verification counters to fully serial execution.
func TestParallelMatchesSerial(t *testing.T) {
	for _, s := range setups() {
		for _, trav := range []TraversalStrategy{Incremental, Greedy} {
			opts := s.opts
			opts.Traversal = trav
			opts.Distance = s.dist
			tree, err := Build(s.objs, opts)
			if err != nil {
				t.Fatalf("%s: Build: %v", s.name, err)
			}
			maxD := s.dist.MaxDistance()
			queries := s.objs[:5]

			type baseline struct {
				res []Result
				qs  QueryStats
			}
			var serial []baseline
			run := func(tag string, qi int, q metric.Object) (baseline, string) {
				label := s.name + "/" + trav.String() + "/" + tag
				var b baseline
				var err error
				switch tag {
				case "range":
					b.res, b.qs, err = tree.RangeSearchWithStats(q, 0.12*maxD)
				case "knn1":
					b.res, b.qs, err = tree.KNNWithStats(q, 1)
				case "knn8":
					b.res, b.qs, err = tree.KNNWithStats(q, 8)
				case "approx":
					b.res, b.qs, err = tree.KNNApproxWithStats(q, 5, 40)
				}
				if err != nil {
					t.Fatalf("%s (q=%d, workers=%d): %v", label, qi, tree.Workers(), err)
				}
				return b, label
			}
			tags := []string{"range", "knn1", "knn8", "approx"}

			tree.SetWorkers(1)
			for qi, q := range queries {
				for _, tag := range tags {
					b, _ := run(tag, qi, q)
					serial = append(serial, b)
				}
			}
			for _, workers := range []int{2, 4, 8} {
				tree.SetWorkers(workers)
				i := 0
				for qi, q := range queries {
					for _, tag := range tags {
						b, label := run(tag, qi, q)
						sameResults(t, label, serial[i].res, b.res)
						sameVerification(t, label, serial[i].qs, b.qs)
						i++
					}
				}
			}
			tree.Close()
		}
	}
}

// TestParallelJoinMatchesSerial is the same property for Algorithm 3: the
// parallel join emits the same pairs in the same order with the same
// verification counters.
func TestParallelJoinMatchesSerial(t *testing.T) {
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
	tq := build(vectorSet(300, dim, 61), 61, nil)
	to := build(vectorSet(250, dim, 62), 62, tq)
	eps := 0.08 * metric.L2(dim).MaxDistance()

	tq.SetWorkers(1)
	to.SetWorkers(1)
	want, wantQS, err := JoinWithStats(tq, to, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("join baseline empty; widen eps")
	}
	for _, workers := range []int{2, 4, 8} {
		tq.SetWorkers(workers) // the Q side drives the join's worker pool
		got, gotQS, err := JoinWithStats(tq, to, eps)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d pairs, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if want[i].Q.ID() != got[i].Q.ID() || want[i].O.ID() != got[i].O.ID() || want[i].Dist != got[i].Dist {
				t.Fatalf("workers=%d: pair %d = (%d,%d,%v), want (%d,%d,%v)", workers, i,
					got[i].Q.ID(), got[i].O.ID(), got[i].Dist, want[i].Q.ID(), want[i].O.ID(), want[i].Dist)
			}
		}
		sameVerification(t, "join", wantQS, gotQS)
	}
}

// TestParallelCancellationPartials: a deadline expiring while verifier
// workers are mid-batch still yields ErrCanceled and well-formed partials —
// every returned result satisfies the predicate.
func TestParallelCancellationPartials(t *testing.T) {
	objs := vectorSet(800, 4, 53)
	sd := &slowDist{DistanceFunc: metric.L2(4)}
	// DisableLemma2 keeps every candidate on the throttled verification
	// path, so the deadline reliably expires mid-batch (see the matching
	// note in TestCtxDeadlinePartials).
	tree, err := Build(objs, Options{
		Distance: sd, Codec: metric.VectorCodec{Dim: 4}, NumPivots: 3, Seed: 53,
		DisableLemma2: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tree.SetWorkers(4)
	q := objs[29]
	r := 0.9 * sd.MaxDistance()

	sd.delay.Store(int64(100 * time.Microsecond))
	defer sd.delay.Store(0)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	res, err := tree.RangeSearchCtx(ctx, q, r)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("range err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
	if len(res) >= len(objs) {
		t.Fatal("canceled parallel range verified every object")
	}
	for i, re := range res {
		if re.Dist > r {
			t.Fatalf("partial %d at distance %v > r %v", i, re.Dist, r)
		}
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel2()
	kres, err := tree.KNNCtx(ctx2, q, 50)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("knn err = %v, want ErrCanceled", err)
	}
	for i := 1; i < len(kres); i++ {
		if kres[i-1].Dist > kres[i].Dist {
			t.Fatal("knn partials not sorted")
		}
	}
}

// TestParallelCorruptionPartials: corrupt data pages surface ErrCorrupt from
// the parallel engine exactly as from serial execution, with partial results,
// and healing the pages restores full answers.
func TestParallelCorruptionPartials(t *testing.T) {
	tree, _, dataFault, objs, dist := faultyTree(t, 400)
	tree.SetWorkers(4)
	q := objs[5]
	flipAllPages(dataFault, tree.raf.PagesUsed())

	res, err := tree.KNN(q, 8)
	if !errors.Is(err, page.ErrCorrupt) {
		t.Fatalf("knn err = %v, want ErrCorrupt", err)
	}
	if len(res) >= 8 {
		t.Fatalf("full result set despite every data page corrupt: %d", len(res))
	}
	if _, err := tree.RangeQuery(q, 0.4*dist.MaxDistance()); !errors.Is(err, page.ErrCorrupt) {
		t.Fatalf("range err = %v, want ErrCorrupt", err)
	}

	dataFault.ClearFlips()
	res, err = tree.KNN(q, 8)
	if err != nil {
		t.Fatal(err)
	}
	wantDists := bfKNNDists(objs, q, 8, dist)
	if len(res) != len(wantDists) {
		t.Fatalf("after heal: %d results, want %d", len(res), len(wantDists))
	}
	for i := range res {
		if res[i].Dist != wantDists[i] {
			t.Fatalf("after heal: dist[%d] = %v, want %v", i, res[i].Dist, wantDists[i])
		}
	}
}

// TestParallelStressQueriesRebuild races concurrent parallel-mode queries
// (hitting the sharded page caches from many verifier goroutines) against
// periodic Rebuilds. Run with -race; answers are cross-checked against brute
// force throughout.
func TestParallelStressQueriesRebuild(t *testing.T) {
	objs, tree := buildCtxTree(t, 800, 4, 54)
	tree.SetWorkers(8)
	dist := metric.L2(4)
	r := 0.25 * dist.MaxDistance()

	stop := make(chan struct{})
	var wg, wgRebuild sync.WaitGroup
	errCh := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				q := objs[(w*53+i*17)%len(objs)]
				res, err := tree.RangeQuery(q, r)
				if err != nil {
					errCh <- err
					return
				}
				want := bfRange(objs, q, r, dist)
				if len(res) != len(want) {
					errCh <- errMismatch
					return
				}
				if res, err := tree.KNN(q, 5); err != nil || len(res) != 5 {
					errCh <- errMismatch
					return
				}
			}
		}(w)
	}
	wgRebuild.Add(1)
	go func() {
		defer wgRebuild.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := tree.Rebuild(nil, nil); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	wgRebuild.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestWorkerResolution pins the Options.Workers contract: 0 picks the
// default of one verifier (serial execution), values clamp to
// [1, maxWorkers], and SetWorkers applies the same resolution.
func TestWorkerResolution(t *testing.T) {
	objs := vectorSet(50, 4, 55)
	tree, err := Build(objs, Options{Distance: metric.L2(4), Codec: metric.VectorCodec{Dim: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Workers(); got != 1 {
		t.Errorf("default workers = %d, want 1", got)
	}
	tree.SetWorkers(4)
	if tree.SetWorkers(0); tree.Workers() != 1 {
		t.Errorf("SetWorkers(0) resolved to %d, want the default 1", tree.Workers())
	}
	tree.SetWorkers(-3)
	if tree.Workers() != 1 {
		t.Errorf("negative workers resolved to %d, want 1", tree.Workers())
	}
	tree.SetWorkers(maxWorkers + 100)
	if tree.Workers() != maxWorkers {
		t.Errorf("oversized workers resolved to %d, want %d", tree.Workers(), maxWorkers)
	}
	tree.SetWorkers(3)
	if tree.Workers() != 3 {
		t.Errorf("Workers = %d, want 3", tree.Workers())
	}
}
