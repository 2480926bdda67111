package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"spbtree/internal/metric"
)

// TestBatchMatchesScalar is the blocked-verification contract end to end
// (DESIGN.md §13): verifying candidates in blocks through the query's prepared
// kernel changes no observable output. Answers are checked against a
// brute-force scan of the live set; results (hashed) and every counter the
// verification stage owns are checked against goldens — the entry-at-a-time
// scalar path, frozen at the last commit that had one (golden_test.go) — for
// every setup, range / kNN / budgeted kNN, with the write
// buffer empty and live. It also pins that the block path is the one that
// runs: BatchedCandidates is positive for range and kNN on every metric, the
// two without a kernel of their own included.
func TestBatchMatchesScalar(t *testing.T) {
	defer writeGoldens(t)
	for _, s := range setups() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			maxD := s.dist.MaxDistance()
			for _, delta := range []bool{false, true} {
				base, extra := s.objs, []metric.Object(nil)
				if delta {
					base, extra = s.objs[:len(s.objs)-20], s.objs[len(s.objs)-20:]
				}
				opts := s.opts
				opts.Distance = s.dist
				tree, err := Build(base, opts)
				if err != nil {
					t.Fatalf("Build: %v", err)
				}
				live := base
				if delta {
					live = addWriteBuffer(t, tree, base, extra)
				}
				for _, op := range []Query{
					{Op: OpRange, Radius: 0.15 * maxD},
					{Op: OpKNN, K: 6},
				} {
					label := fmt.Sprintf("query/%s/%s/delta=%v", s.name, op.Op, delta)
					var row golden
					var batched int64
					for _, q := range s.objs[:4] {
						op.Q = q
						res, qs, err := tree.Query(context.Background(), op)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						row.add(res, qs, nil)
						batched += qs.BatchedCandidates
						truth := bfRangeDists(live, q, maxD, s.dist)
						subsetOfTruth(t, label, res, truth)
						switch op.Op {
						case OpRange:
							if want := bfRange(live, q, op.Radius, s.dist); len(res) != len(want) || len(resultIDs(res)) != len(want) {
								t.Fatalf("%s: %d results, brute force %d", label, len(res), len(want))
							}
						case OpKNN:
							want := bfKNNDists(live, q, op.K, s.dist)
							if len(res) != len(want) {
								t.Fatalf("%s: %d results, brute force %d", label, len(res), len(want))
							}
							for i, x := range res {
								if x.Dist != want[i] {
									t.Fatalf("%s: rank %d at distance %v, brute force %v", label, i, x.Dist, want[i])
								}
							}
						}
						if !delta && qs.BatchedCandidates < qs.Verified {
							t.Errorf("%s: %d candidates verified, only %d through a block", label, qs.Verified, qs.BatchedCandidates)
						}
					}
					checkGolden(t, label, row)
					if batched == 0 {
						t.Errorf("%s: no candidate went through the block path", label)
					}
					if !metric.IsBounded(s.dist) && row.Abandoned != 0 {
						t.Errorf("%s: %d evaluations abandoned by a metric that cannot abandon", label, row.Abandoned)
					}
				}
				tree.Close()
			}
		})
	}
}

// TestKernelsWiredIn keeps what the retired kernel benchmarks gated on that
// does not depend on the machine: on the words workload, where edit distance
// abandons aggressively, range and kNN both abandon evaluations (the live
// bound reaches the kernel) and every verification goes through a block.
func TestKernelsWiredIn(t *testing.T) {
	s := setupNamed(t, "words-edit")
	tree := buildSetup(t, s)
	defer tree.Close()
	for _, op := range []Query{{Op: OpRange, Radius: 2}, {Op: OpKNN, K: 6}} {
		var abandoned, batched, verified int64
		for _, q := range s.objs[:8] {
			op.Q = q
			_, qs, err := tree.Query(context.Background(), op)
			if err != nil {
				t.Fatal(err)
			}
			abandoned += qs.Abandoned
			batched += qs.BatchedCandidates
			verified += qs.Verified
		}
		if abandoned == 0 {
			t.Errorf("%s: no evaluation abandoned: the bound does not reach the kernel", op.Op)
		}
		if batched == 0 || batched < verified {
			t.Errorf("%s: %d candidates verified, %d through a block", op.Op, verified, batched)
		}
	}
}

// TestBatchStressQueriesMutation hammers batch-path queries (parallel range
// and kNN, which exercise the raw record copies and blocked verification
// concurrently with the RAF) against concurrent inserts and compactions on a
// durable tree.
// Run with -race it is the batch read path's data-race check; functionally
// it pins that batch verification keeps answering correctly while the RAF
// underneath it is being rewritten.
func TestBatchStressQueriesMutation(t *testing.T) {
	fx := newDurableFixture(t, 250, DurableOptions{CompactThreshold: 40})
	defer fx.tree.Close()
	tree := fx.tree
	const (
		writers    = 2
		perWriter  = 30
		readers    = 4
		readRounds = 25
	)
	var wg sync.WaitGroup
	var batchedTotal int64
	var mu sync.Mutex
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7100 + w)))
			for i := 0; i < perWriter; i++ {
				coords := make([]float64, 5)
				for j := range coords {
					coords[j] = rng.Float64()
				}
				v := metric.NewVector(uint64(200000+w*perWriter+i), coords)
				if err := tree.Insert(v); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			q := fx.live[uint64(100+r)]
			var local int64
			for i := 0; i < readRounds; i++ {
				res, qs, err := tree.Query(context.Background(), Query{Op: OpRange, Q: q, Radius: 0.4, Timed: true})
				if err != nil {
					t.Errorf("reader range: %v", err)
					return
				}
				if len(res) == 0 {
					t.Error("reader range: query object not found in its own neighborhood")
					return
				}
				local += qs.BatchedCandidates
				if _, qs, err = tree.Query(context.Background(), Query{Op: OpKNN, Q: q, K: 5, Timed: true}); err != nil {
					t.Errorf("reader knn: %v", err)
					return
				}
				local += qs.BatchedCandidates
			}
			mu.Lock()
			batchedTotal += local
			mu.Unlock()
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := tree.CompactNow(); err != nil {
				t.Errorf("concurrent CompactNow: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	if batchedTotal == 0 {
		t.Error("no candidate went through a batch kernel during the stress run")
	}

	// After the dust settles the tree must still answer exactly: a full-radius
	// range query sees every acknowledged object.
	want := len(fx.live) + writers*perWriter
	res, err := tree.RangeQuery(fx.live[0], allRadius)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != want {
		t.Fatalf("after stress: full-radius range found %d objects, want %d", len(res), want)
	}
}
