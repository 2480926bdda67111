// Package forest implements the paper's future-work direction ("extend the
// SPB-tree to different distributed environments"): a partitioned SPB-tree.
// Objects are hash-partitioned across shards, every shard is an independent
// SPB-tree over the *same* pivot mapping (so pruning quality matches the
// monolithic index), and queries scatter to all shards in parallel and
// gather-merge the answers.
//
// Every shard is a local *core.Tree owning its page stores, caches and
// counters, exactly as separate nodes would: Build produces them from one
// object set, and FromShards assembles a Forest over existing trees sharing
// one pivot mapping. Every search goes through one entry point, Query, which
// visits the shards by one fixed rule (DESIGN.md §15.4): an exact kNN runs
// shard 0 alone and seeds the rest with its k-th distance, and everything
// else scatters to every shard. A cluster node runs exactly this over its
// locally-owned shards; the router scatters once and repeats the same merge
// (core.MergeResults) one level up, across nodes (DESIGN.md §12).
package forest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spbtree/internal/core"
	"spbtree/internal/metric"
	"spbtree/internal/sfc"
)

// Options configures Build.
type Options struct {
	// Tree configures each shard (Distance and Codec are required;
	// IndexStore/DataStore must stay nil — every shard allocates its own).
	Tree core.Options
	// Shards is the partition count; 0 means 4.
	Shards int
	// Parallel bounds concurrent shard queries; 0 means all shards at once.
	Parallel int
}

// Forest is a partitioned SPB-tree.
type Forest struct {
	trees    []*core.Tree
	parallel int
}

// PartitionOf returns the shard index objects with this ID hash-partition
// to, given the shard count — the one partitioning rule shared by Build,
// the cluster bootstrap, and the cluster's insert/delete routing.
func PartitionOf(id uint64, shards int) int { return int(id % uint64(shards)) }

// Partition splits objs into shard object sets by PartitionOf.
func Partition(objs []metric.Object, shards int) [][]metric.Object {
	parts := make([][]metric.Object, shards)
	for _, o := range objs {
		s := PartitionOf(o.ID(), shards)
		parts[s] = append(parts[s], o)
	}
	return parts
}

// Build hash-partitions objs by id and builds one SPB-tree per shard. Shard
// 0 selects the pivot table; every other shard shares its mapping.
func Build(objs []metric.Object, opts Options) (*Forest, error) {
	if opts.Tree.IndexStore != nil || opts.Tree.DataStore != nil {
		return nil, fmt.Errorf("forest: per-shard stores are allocated internally; leave IndexStore/DataStore nil")
	}
	n := opts.Shards
	if n == 0 {
		n = 4
	}
	if n < 1 {
		return nil, fmt.Errorf("forest: Shards must be positive")
	}
	parts := Partition(objs, n)
	for i, p := range parts {
		if len(p) == 0 {
			return nil, fmt.Errorf("forest: shard %d is empty; fewer shards than distinct objects required", i)
		}
	}
	f := &Forest{parallel: opts.Parallel}
	first := opts.Tree
	t0, err := core.Build(parts[0], first)
	if err != nil {
		return nil, fmt.Errorf("forest: shard 0: %w", err)
	}
	f.trees = append(f.trees, t0)
	for i := 1; i < n; i++ {
		shOpts := opts.Tree
		shOpts.ShareMapping = t0
		t, err := core.Build(parts[i], shOpts)
		if err != nil {
			return nil, fmt.Errorf("forest: shard %d: %w", i, err)
		}
		f.trees = append(f.trees, t)
	}
	return f, nil
}

// FromShards assembles a Forest over existing trees, which must share one
// pivot mapping (the caller's responsibility). parallel bounds concurrent
// shard queries as in Options.Parallel.
func FromShards(trees []*core.Tree, parallel int) (*Forest, error) {
	if len(trees) == 0 {
		return nil, fmt.Errorf("forest: FromShards needs at least one shard")
	}
	return &Forest{trees: trees, parallel: parallel}, nil
}

// Shards returns the per-shard trees (read-only use).
func (f *Forest) Shards() []*core.Tree { return f.trees }

// NumShards returns the shard count.
func (f *Forest) NumShards() int { return len(f.trees) }

// Len returns the total object count.
func (f *Forest) Len() int {
	n := 0
	for _, t := range f.trees {
		n += t.Len()
	}
	return n
}

// scatter runs fn(0), …, fn(n-1) — one task per visited shard of a query,
// or per shard pair of a join — bounded by the parallelism limit, and
// returns the first error in task order. Dispatch is admission-controlled:
// once ctx is canceled or any task has recorded an error, no further task is
// issued — already-running tasks wind down through their own ctx checks, but
// queued ones never start. Cancellation is re-checked after every slot
// acquisition: a dispatcher that waited for a slot can wake to find both the
// slot and the cancellation ready, and Go's select picks between ready cases
// at random, so without the re-check a canceled query could still issue one
// more task's worth of work. On cancellation with no task error the returned
// error matches core.ErrCanceled.
func (f *Forest) scatter(ctx context.Context, n int, fn func(i int) error) error {
	limit := f.parallel
	if limit <= 0 || limit > n {
		limit = n
	}
	sem := make(chan struct{}, limit)
	errs := make([]error, n)
	var failed atomic.Bool
	var wg sync.WaitGroup
dispatch:
	for i := 0; i < n; i++ {
		if failed.Load() || ctx.Err() != nil {
			break // stop issuing work; un-dispatched tasks never run
		}
		// Acquire the slot before spawning, so a full pipeline blocks the
		// dispatcher (not a goroutine per task) and cancellation while
		// waiting abandons the remaining tasks outright.
		select {
		case sem <- struct{}{}:
			if ctx.Err() != nil {
				break dispatch // canceled while waiting; the slot won the race
			}
		case <-ctx.Done():
			break dispatch
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := fn(i); err != nil {
				errs[i] = err
				failed.Store(true)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", core.ErrCanceled, context.Cause(ctx))
	}
	return nil
}

// Query answers one search request across the forest: it scatters the
// request to the shards as core.Tree.Query and merges the per-shard answers
// and QueryStats. This is the one gather body every operation runs through
// (DESIGN.md §12.3), and its visit follows one fixed rule (§15.4):
//
//   - OpKNN without a bound, over two or more shards, is staged: shard 0
//     answers alone, and its k-th distance becomes the Bound of the same
//     request sent to the rest. A request that already carries a bound is
//     scattered flat with it. The per-shard top-k sets merge under the total
//     (dist, ID) order, so the answer is the flat scatter's.
//   - OpRange visits every shard and concatenates their answers in
//     ascending ID.
//   - OpKNNGraph scatters flat, and a shard with no live graph
//     (core.ErrNoGraph) answers the exact request instead, so the merged
//     result is never worse than the weakest shard's exact answer.
//
// Shards not yet dispatched when ctx is canceled never run, in-flight shards
// stop at their own cancellation checks, and whatever the finished shards
// produced comes back merged with an error matching core.ErrCanceled. In the
// returned stats, work counters add across shards, the stage clocks are
// per-shard maxima (core.QueryStats.Merge), Plan describes the visit, and
// Elapsed is the forest's own wall clock around the whole gather — both
// rounds of a staged kNN included.
func (f *Forest) Query(ctx context.Context, q core.Query) ([]core.Result, core.QueryStats, error) {
	if err := q.Validate(); err != nil {
		return nil, core.QueryStats{Op: q.Op}, err
	}
	start := time.Now()
	per := make([][]core.Result, len(f.trees))
	stats := make([]core.QueryStats, len(f.trees))
	plan := core.PlanInfo{ShardsTotal: len(f.trees)}
	done := 0 // shards the staged round already answered
	var err error
	if q.Op == core.OpKNN && !q.Bounded && q.K > 0 && len(f.trees) > 1 {
		plan.Staged = true
		per[0], stats[0], err = f.trees[0].Query(ctx, q)
		q.Bounded, q.Bound = true, stageBound(per[0], q.K)
		done = 1
	}
	if err == nil {
		rest := f.trees[done:]
		err = f.scatter(ctx, len(rest), func(j int) error {
			t := rest[j]
			res, qs, err := t.Query(ctx, q)
			if q.Op == core.OpKNNGraph && errors.Is(err, core.ErrNoGraph) {
				res, qs, err = t.Query(ctx, q.Exact())
			}
			per[done+j], stats[done+j] = res, qs
			return err
		})
	}
	out := core.MergeResults(q.Op, q.K, per)
	var total core.QueryStats
	for _, qs := range stats {
		total.Merge(qs)
	}
	total.Results = len(out) // per-shard Results sum to more than the merge keeps
	total.Plan = plan
	total.Elapsed = time.Since(start)
	return out, total, err
}

// stageBound extracts the seed bound for the staged kNN's second round: the
// first shard's k-th distance when it filled k, +∞ otherwise (a shard
// smaller than k bounds nothing).
func stageBound(res []core.Result, k int) float64 {
	if len(res) == k {
		return res[k-1].Dist
	}
	return math.Inf(1)
}

// answers drops the stats of a Query call, for the conveniences below.
func answers(res []core.Result, _ core.QueryStats, err error) ([]core.Result, error) { return res, err }

// RangeQuery answers the paper's RQ(q, O, r) across the forest: Query with Op
// core.OpRange under context.Background().
func (f *Forest) RangeQuery(q metric.Object, r float64) ([]core.Result, error) {
	return answers(f.Query(context.Background(), core.Query{Op: core.OpRange, Q: q, Radius: r}))
}

// KNN answers the paper's kNN(q, k) across the forest: Query with Op
// core.OpKNN under context.Background().
func (f *Forest) KNN(q metric.Object, k int) ([]core.Result, error) {
	return answers(f.Query(context.Background(), core.Query{Op: core.OpKNN, Q: q, K: k}))
}

// KNNWithStatsCtx is kept only because the frozen benchmark harness (bench/)
// calls it by name: Query with Op core.OpKNN, Timed. Nothing else in the
// repository may use it, and it goes with the harness's next revision.
func (f *Forest) KNNWithStatsCtx(ctx context.Context, q metric.Object, k int) ([]core.Result, core.QueryStats, error) {
	return f.Query(ctx, core.Query{Op: core.OpKNN, Q: q, K: k, Timed: true})
}

// Join computes SJ(Q, O, ε) between two forests sharing one mapped space:
// every (Q-shard, O-shard) pair runs core.Join as one task of fq's scatter,
// the shuffle-free join plan a shared-pivot partitioning allows. The pairs
// come back in (QID, OID) order. Cancellation and failures behave as in
// Query: shard pairs not yet dispatched never run, and the pairs gathered so
// far return with the first error (matching core.ErrCanceled on
// cancellation). In the stats, the counters add across shard pairs
// (core.QueryStats.Merge), and Elapsed is the forest's own wall clock around
// the gather. A cluster node answers its slice of a cluster join with this
// (DESIGN.md §12.5).
func Join(ctx context.Context, fq, fo *Forest, eps float64) ([]core.JoinPair, core.QueryStats, error) {
	start := time.Now()
	no := len(fo.trees)
	per := make([][]core.JoinPair, len(fq.trees)*no)
	stats := make([]core.QueryStats, len(per))
	err := fq.scatter(ctx, len(per), func(i int) error {
		var err error
		per[i], stats[i], err = core.Join(ctx, fq.trees[i/no], fo.trees[i%no], eps)
		return err
	})
	var out []core.JoinPair
	total := core.QueryStats{Op: core.OpJoin}
	for i := range per {
		out = append(out, per[i]...)
		total.Merge(stats[i])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Q.ID() != out[j].Q.ID() {
			return out[i].Q.ID() < out[j].Q.ID()
		}
		return out[i].O.ID() < out[j].O.ID()
	})
	total.Results = len(out)
	total.Elapsed = time.Since(start)
	return out, total, err
}

// BuildPartner builds a second forest over objs sharing f's pivot mapping
// and shard count, the precondition for Join. The curve must be Z-order.
func (f *Forest) BuildPartner(objs []metric.Object, opts Options) (*Forest, error) {
	if opts.Shards == 0 {
		opts.Shards = len(f.trees)
	}
	opts.Tree.ShareMapping = f.trees[0]
	opts.Tree.Curve = sfc.ZOrder
	return Build(objs, opts)
}

// ResetStats resets every shard.
func (f *Forest) ResetStats() {
	for _, t := range f.trees {
		t.ResetStats()
	}
}

// TakeStats aggregates per-shard counters — the total work across the
// "cluster".
func (f *Forest) TakeStats() core.Stats {
	var total core.Stats
	for _, t := range f.trees {
		st := t.TakeStats()
		total.PageAccesses += st.PageAccesses
		total.DistanceComputations += st.DistanceComputations
	}
	return total
}
