package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"spbtree/internal/metric"
	"spbtree/internal/page"
)

// subsetOfTruth asserts every partial result is a true answer at its true
// distance: its ID is in the brute-force answer set truth (ID → distance).
func subsetOfTruth(t *testing.T, label string, partial []Result, truth map[uint64]float64) {
	t.Helper()
	for i, r := range partial {
		d, ok := truth[r.Object.ID()]
		if !ok {
			t.Errorf("%s: partial %d (id %d, d=%v) is not in the brute-force answer", label, i, r.Object.ID(), r.Dist)
		} else if r.Exact && r.Dist != d {
			t.Errorf("%s: partial %d (id %d) at distance %v, true distance %v", label, i, r.Object.ID(), r.Dist, d)
		}
	}
}

// bfRangeDists is the brute-force range answer as ID → distance.
func bfRangeDists(objs []metric.Object, q metric.Object, r float64, d metric.DistanceFunc) map[uint64]float64 {
	out := map[uint64]float64{}
	for _, o := range objs {
		if x := d.Distance(q, o); x <= r {
			out[o.ID()] = x
		}
	}
	return out
}

// TestParallelCancellationPartials: a range query and a kNN query running in
// parallel, each with a deadline that expires mid-verification, each return
// ErrCanceled and partials that are a subset of the brute-force answer —
// interrupted, not wrong. (For kNN a partial top-k is a subset of the
// objects, at true distances, in ascending order.)
func TestParallelCancellationPartials(t *testing.T) {
	objs := vectorSet(800, 4, 53)
	sd := &slowDist{DistanceFunc: metric.L2(4)}
	tree, err := Build(objs, Options{
		Distance: sd, Codec: metric.VectorCodec{Dim: 4}, NumPivots: 3, Seed: 53,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	q := objs[29]
	// At 0.4·d+ Lemma 2 admits 219 candidates computation-free and 454 pay
	// the throttled distance, so the deadline reliably expires mid-block
	// (see the matching note in TestCtxDeadlinePartials).
	r := 0.4 * sd.MaxDistance()
	rangeTruth := bfRangeDists(objs, q, r, metric.L2(4))
	allTruth := bfRangeDists(objs, q, sd.MaxDistance(), metric.L2(4))

	sd.delay.Store(int64(100 * time.Microsecond))
	defer sd.delay.Store(0)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		defer cancel()
		res, _, err := tree.Query(ctx, Query{Op: OpRange, Q: q, Radius: r})
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("range err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
		}
		if len(res) >= len(rangeTruth) {
			t.Errorf("canceled range returned all %d answers", len(res))
		}
		subsetOfTruth(t, "range", res, rangeTruth)
	}()
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		defer cancel()
		res, _, err := tree.Query(ctx, Query{Op: OpKNN, Q: q, K: 50})
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("knn err = %v, want ErrCanceled", err)
		}
		subsetOfTruth(t, "knn", res, allTruth)
		for i := 1; i < len(res); i++ {
			if res[i-1].Dist > res[i].Dist {
				t.Error("knn partials not sorted")
			}
		}
	}()
	wg.Wait()
}

// TestParallelCorruptionPartials: with every data page corrupt, a kNN and a
// range query running in parallel each surface ErrCorrupt with partials that
// are a subset of the brute-force answer, and healing the pages restores the
// full answers.
func TestParallelCorruptionPartials(t *testing.T) {
	tree, _, dataFault, objs, dist := faultyTree(t, 400)
	defer tree.Close()
	q := objs[5]
	r := 0.4 * dist.MaxDistance()
	rangeTruth := bfRangeDists(objs, q, r, dist)
	allTruth := bfRangeDists(objs, q, dist.MaxDistance(), dist)
	flipAllPages(dataFault, tree.raf.PagesUsed())

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		res, err := tree.KNN(q, 8)
		if !errors.Is(err, page.ErrCorrupt) {
			t.Errorf("knn err = %v, want ErrCorrupt", err)
		}
		if len(res) >= 8 {
			t.Errorf("full result set despite every data page corrupt: %d", len(res))
		}
		subsetOfTruth(t, "knn", res, allTruth)
	}()
	go func() {
		defer wg.Done()
		res, err := tree.RangeQuery(q, r)
		if !errors.Is(err, page.ErrCorrupt) {
			t.Errorf("range err = %v, want ErrCorrupt", err)
		}
		subsetOfTruth(t, "range", res, rangeTruth)
	}()
	wg.Wait()

	dataFault.ClearFlips()
	res, err := tree.KNN(q, 8)
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
	rres, err := tree.RangeQuery(q, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(rres) != len(rangeTruth) {
		t.Fatalf("after heal: range returned %d, want %d", len(rres), len(rangeTruth))
	}
}
