package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spbtree/internal/metric"
	"spbtree/internal/pivot"
	"spbtree/internal/sfc"
)

// slowDist wraps a DistanceFunc with a switchable per-call delay, so tests
// can build a tree at full speed and then make verification arbitrarily slow
// — deterministic mid-query deadline expiry on any machine.
type slowDist struct {
	metric.DistanceFunc
	delay atomic.Int64 // nanoseconds per Distance call
}

func (s *slowDist) Distance(a, b metric.Object) float64 {
	if d := s.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	return s.DistanceFunc.Distance(a, b)
}

// buildCtxTree builds a Z-order tree (joins work) over n random vectors.
func buildCtxTree(t *testing.T, n, dim int, seed int64) ([]metric.Object, *Tree) {
	t.Helper()
	objs := vectorSet(n, dim, seed)
	tree, err := Build(objs, Options{
		Distance: metric.L2(dim), Codec: metric.VectorCodec{Dim: dim},
		NumPivots: 3, Curve: sfc.ZOrder, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return objs, tree
}

// TestCtxBackgroundEquivalence: the paper-named conveniences (RangeQuery, KNN,
// Join) answer exactly like Query / JoinCtx under context.Background — the
// delegation adds no behavior.
func TestCtxBackgroundEquivalence(t *testing.T) {
	objs, tree := buildCtxTree(t, 300, 4, 41)
	q := objs[7]
	dist := metric.L2(4)
	r := 0.25 * dist.MaxDistance()
	ctx := context.Background()

	plain, err1 := tree.RangeQuery(q, r)
	withCtx, _, err2 := tree.Query(ctx, Query{Op: OpRange, Q: q, Radius: r})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(plain) != len(withCtx) {
		t.Fatalf("range: plain %d results, ctx %d", len(plain), len(withCtx))
	}

	plainK, err1 := tree.KNN(q, 10)
	ctxK, _, err2 := tree.Query(ctx, Query{Op: OpKNN, Q: q, K: 10})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(plainK) != len(ctxK) || plainK[len(plainK)-1].Dist != ctxK[len(ctxK)-1].Dist {
		t.Fatal("kNN: ctx variant disagrees with plain")
	}

	plainJ, err1 := Join(tree, tree, 0.05*dist.MaxDistance())
	ctxJ, err2 := JoinCtx(ctx, tree, tree, 0.05*dist.MaxDistance())
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(plainJ) != len(ctxJ) {
		t.Fatalf("join: plain %d pairs, ctx %d", len(plainJ), len(ctxJ))
	}
}

// TestCtxAlreadyCanceled: every entry point refuses an already-canceled
// context with ErrCanceled (wrapping the context's own cause) and returns
// well-formed (possibly empty) partials.
func TestCtxAlreadyCanceled(t *testing.T) {
	objs, tree := buildCtxTree(t, 200, 4, 42)
	q := objs[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	checkErr := func(name string, err error) {
		t.Helper()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s: err = %v, want ErrCanceled", name, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cause %v not preserved", name, err)
		}
	}
	res, _, err := tree.Query(ctx, Query{Op: OpRange, Q: q, Radius: 0.5})
	checkErr("range", err)
	for i := 1; i < len(res); i++ {
		if res[i-1].Object.ID() >= res[i].Object.ID() {
			t.Fatal("range partials not in id order")
		}
	}
	if _, _, err := tree.Query(ctx, Query{Op: OpKNN, Q: q, K: 5}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("knn: %v", err)
	}
	if _, _, err := tree.Query(ctx, Query{Op: OpKNNApprox, Q: q, K: 5, MaxVerify: 50}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("knn approx: %v", err)
	}
	if _, err := JoinCtx(ctx, tree, tree, 0.1); !errors.Is(err, ErrCanceled) {
		t.Fatalf("join: %v", err)
	}
	// A Timed query carries the same contract and still fills stats.
	_, qs, err := tree.Query(ctx, Query{Op: OpRange, Q: q, Radius: 0.5, Timed: true})
	checkErr("range stats", err)
	if qs.Op != OpRange {
		t.Fatalf("stats not populated on cancellation: %+v", qs)
	}
}

// TestCtxDeadlinePartials: a deadline expiring mid-query yields ErrCanceled
// wrapping context.DeadlineExceeded, and every partial answer satisfies the
// query predicate — interrupted, not wrong. A throttled distance function
// makes the mid-query expiry deterministic.
func TestCtxDeadlinePartials(t *testing.T) {
	objs := vectorSet(800, 4, 43)
	sd := &slowDist{DistanceFunc: metric.L2(4)}
	// Lemma 2 would admit most of this wide scan computation-free, letting
	// the query finish before the deadline; disable it so every candidate
	// pays the throttled distance and mid-query expiry is guaranteed.
	tree, err := Build(objs, Options{
		Distance: sd, Codec: metric.VectorCodec{Dim: 4}, NumPivots: 3, Seed: 43,
		DisableLemma2: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := objs[11]
	r := 0.9 * sd.MaxDistance() // near-full scan: plenty to interrupt

	sd.delay.Store(int64(100 * time.Microsecond)) // ~80ms uncancelled
	defer sd.delay.Store(0)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	res, _, err := tree.Query(ctx, Query{Op: OpRange, Q: q, Radius: r})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
	if len(res) >= len(objs) {
		t.Fatal("canceled query verified every object")
	}
	for i, re := range res {
		if re.Dist > r {
			t.Fatalf("partial result %d at distance %v > r %v", i, re.Dist, r)
		}
		if i > 0 && res[i-1].Object.ID() >= re.Object.ID() {
			t.Fatal("partials not in id order")
		}
	}
}

// TestCtxDeadlineLargeTree is the acceptance check: against a 50k-object
// tree, a 1ms deadline on an expensive query returns ErrCanceled with
// partial results in wall time far below the uncancelled query's.
func TestCtxDeadlineLargeTree(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-object build in -short mode")
	}
	const n, dim = 50_000, 8
	objs := vectorSet(n, dim, 44)
	dist := metric.L2(dim)
	tree, err := Build(objs, Options{
		Distance: dist, Codec: metric.VectorCodec{Dim: dim},
		NumPivots: 3, Selector: pivot.Random{}, Seed: 44,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := objs[123]
	r := 0.8 * dist.MaxDistance() // verifies a large share of the 50k objects

	start := time.Now()
	full, err := tree.RangeQuery(q, r)
	if err != nil {
		t.Fatal(err)
	}
	uncancelled := time.Since(start)

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start = time.Now()
	partial, _, err := tree.Query(ctx, Query{Op: OpRange, Q: q, Radius: r})
	canceled := time.Since(start)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("1ms deadline on %v-long query returned err=%v", uncancelled, err)
	}
	if len(partial) >= len(full) {
		t.Fatalf("canceled query returned all %d results", len(full))
	}
	for _, re := range partial {
		if re.Dist > r {
			t.Fatalf("partial at distance %v > r %v", re.Dist, r)
		}
	}
	// "Well under" the uncancelled latency: half is a conservative bound —
	// in practice the canceled query stops within a few ms of its 1ms
	// deadline while the full scan takes hundreds.
	if canceled >= uncancelled/2 {
		t.Errorf("canceled query took %v, not well under uncancelled %v", canceled, uncancelled)
	}
	t.Logf("uncancelled %v (%d results) vs 1ms-deadline %v (%d partials)",
		uncancelled, len(full), canceled, len(partial))
}

// TestCtxStressQueriesRebuildCancel races concurrent queries (random mix of
// range/kNN/join, some canceled mid-flight) against periodic Rebuilds: no
// data races (run with -race), no goroutine leaks, canceled queries surface
// ErrCanceled with well-formed partials, successful ones stay correct.
func TestCtxStressQueriesRebuildCancel(t *testing.T) {
	objs, tree := buildCtxTree(t, 1200, 4, 45)
	dist := metric.L2(4)
	r := 0.3 * dist.MaxDistance()
	before := runtime.NumGoroutine()

	var wrong atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := objs[rng.Intn(len(objs))]
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if i%3 == 0 {
					// A deadline somewhere inside the query's runtime.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(200))*time.Microsecond)
				}
				var err error
				var res []Result
				switch i % 4 {
				case 0, 1:
					res, _, err = tree.Query(ctx, Query{Op: OpRange, Q: q, Radius: r})
					for _, re := range res {
						if re.Dist > r {
							wrong.Add(1)
						}
					}
				case 2:
					res, _, err = tree.Query(ctx, Query{Op: OpKNN, Q: q, K: 5})
					if err == nil && len(res) != 5 {
						wrong.Add(1)
					}
				case 3:
					_, err = JoinCtx(ctx, tree, tree, 0.02*dist.MaxDistance())
				}
				cancel()
				if err != nil && !errors.Is(err, ErrCanceled) {
					t.Errorf("worker %d: unexpected error %v", w, err)
					return
				}
			}
		}(w)
	}
	// Rebuild concurrently: each swap waits for in-flight queries and the
	// queries issued after it must see a consistent compact tree.
	for i := 0; i < 5; i++ {
		if err := tree.Rebuild(nil, nil); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if n := wrong.Load(); n > 0 {
		t.Fatalf("%d malformed answers under churn", n)
	}
	if tree.Len() != len(objs) {
		t.Fatalf("tree lost objects under churn: %d != %d", tree.Len(), len(objs))
	}
	// Goroutine-leak check: everything we started must wind down.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCtxKNNPartialUsable: a canceled kNN still returns its best-so-far
// candidates sorted by distance — the serving layer's approximate answer.
func TestCtxKNNPartialUsable(t *testing.T) {
	objs := vectorSet(800, 4, 46)
	sd := &slowDist{DistanceFunc: metric.L2(4)}
	tree, err := Build(objs, Options{
		Distance: sd, Codec: metric.VectorCodec{Dim: 4}, NumPivots: 3, Seed: 46,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := objs[5]
	sd.delay.Store(int64(100 * time.Microsecond))
	defer sd.delay.Store(0)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	res, _, err := tree.Query(ctx, Query{Op: OpKNN, Q: q, K: 200})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	for i := 1; i < len(res); i++ {
		if res[i-1].Dist > res[i].Dist {
			t.Fatal("canceled kNN partials not sorted")
		}
	}
}
