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
// (DESIGN.md §13): toggling batch kernels on the same tree changes no
// observable output — byte-identical results and identical Verified /
// Compdists / Discarded / Abandoned / pruning counters — for every setup,
// both traversals and both bounded modes. It also pins that the batch path
// actually runs: BatchedCandidates is zero with kernels off and positive for
// range and kNN, so a silent fallback to the scalar path fails here.
func TestBatchMatchesScalar(t *testing.T) {
	for _, s := range setups() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			for _, trav := range []TraversalStrategy{Incremental, Greedy} {
				opts := s.opts
				opts.Traversal = trav
				opts.Distance = s.dist
				tree, err := Build(s.objs, opts)
				if err != nil {
					t.Fatalf("Build: %v", err)
				}
				if !tree.BatchKernels() {
					t.Fatalf("batch kernels not enabled by Build for %T", s.dist)
				}
				maxD := s.dist.MaxDistance()
				queries := s.objs[:4]

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
						res, qs, err = tree.Query(context.Background(), Query{Op: OpKNNApprox, Q: q, K: 4, MaxVerify: 40, Timed: true})
						if err != nil {
							t.Fatal(err)
						}
						out = append(out, outcome{res, qs})
					}
					return out
				}

				// batched candidates per operation, accumulated across both
				// bounded modes.
				batched := map[string]int64{}
				for _, bounded := range []bool{true, false} {
					tree.SetBoundedKernels(bounded)
					tree.SetBatchKernels(false)
					scalar := collect()
					for i, o := range scalar {
						if o.qs.BatchedCandidates != 0 {
							t.Fatalf("outcome %d: BatchedCandidates = %d with batch kernels off",
								i, o.qs.BatchedCandidates)
						}
					}
					tree.SetBatchKernels(true)
					batch := collect()
					for i := range scalar {
						label := fmt.Sprintf("%s/%s/bounded=%v/#%d", s.name, trav, bounded, i)
						sameResults(t, label, scalar[i].res, batch[i].res)
						a, b := scalar[i].qs, batch[i].qs
						if a.Verified != b.Verified || a.Compdists != b.Compdists ||
							a.Lemma2Included != b.Lemma2Included || a.Discarded != b.Discarded ||
							a.Abandoned != b.Abandoned || a.Results != b.Results ||
							a.EntriesScanned != b.EntriesScanned || a.EntriesPruned != b.EntriesPruned ||
							a.TombstonesSkipped != b.TombstonesSkipped {
							t.Fatalf("%s: counters diverge across batch toggle:\nscalar: %+v\nbatch:  %+v",
								label, a, b)
						}
						batched[b.Op] += b.BatchedCandidates
					}
				}
				if batched[OpRange] == 0 {
					t.Errorf("%s/%s: no range candidate went through a batch kernel", s.name, trav)
				}
				// kNN blocks form on both traversals: greedy batches a whole
				// leaf's survivors, and the best-first loop buffers
				// consecutive entry pops into incremental blocks.
				if batched[OpKNN] == 0 {
					t.Errorf("%s/%s: no kNN candidate went through a batch kernel", s.name, trav)
				}
				tree.Close()
			}
		})
	}
}

// TestDisableBatchKernelsOption pins the Options escape hatch: a tree built
// with DisableBatchKernels reports BatchKernels() == false and never counts
// a batched candidate; SetBatchKernels(true) re-enables for a metric with a
// batch kernel and stays off for one without.
func TestDisableBatchKernelsOption(t *testing.T) {
	s := setups()[0]
	opts := s.opts
	opts.Distance = s.dist
	opts.DisableBatchKernels = true
	tree, err := Build(s.objs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if tree.BatchKernels() {
		t.Fatal("DisableBatchKernels did not disable kernels")
	}
	_, qs, err := tree.Query(context.Background(), Query{Op: OpRange, Q: s.objs[0], Radius: 0.2 * s.dist.MaxDistance(), Timed: true})
	if err != nil {
		t.Fatal(err)
	}
	if qs.BatchedCandidates != 0 {
		t.Fatalf("BatchedCandidates = %d on a batch-disabled tree", qs.BatchedCandidates)
	}
	tree.SetBatchKernels(true)
	if !tree.BatchKernels() {
		t.Fatal("SetBatchKernels(true) did not re-enable for a batch metric")
	}
	_, qs, err = tree.Query(context.Background(), Query{Op: OpRange, Q: s.objs[0], Radius: 0.2 * s.dist.MaxDistance(), Timed: true})
	if err != nil {
		t.Fatal(err)
	}
	if qs.BatchedCandidates == 0 {
		t.Fatal("no candidate batched after SetBatchKernels(true)")
	}

	// A metric with no batch kernel can never be switched on.
	objs := make([]metric.Object, 64)
	for i := range objs {
		objs[i] = metric.NewSeq(uint64(i), wordSet(1, int64(i))[0].(*metric.Str).S+"ACGTACGT")
	}
	plain, err := Build(objs, Options{Distance: metric.TrigramAngular{}, Codec: metric.SeqCodec{}, NumPivots: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if plain.BatchKernels() {
		t.Fatal("TrigramAngular reported batch kernels")
	}
	plain.SetBatchKernels(true)
	if plain.BatchKernels() {
		t.Fatal("SetBatchKernels(true) enabled kernels for a batchless metric")
	}
}

// TestBatchStressQueriesMutation hammers batch-path queries (parallel range
// and kNN, which exercise ReadBatch + blocked verification concurrently with
// the RAF) against concurrent inserts and compactions on a durable tree.
// Run with -race it is the batch read path's data-race check; functionally
// it pins that batch verification keeps answering correctly while the RAF
// underneath it is being rewritten.
func TestBatchStressQueriesMutation(t *testing.T) {
	fx := newDurableFixture(t, 250, DurableOptions{CompactThreshold: 40})
	defer fx.tree.Close()
	tree := fx.tree
	if !tree.BatchKernels() {
		t.Fatal("durable tree did not enable batch kernels")
	}

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
