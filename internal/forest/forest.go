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
// plans the visit (adaptive.go: range pruning, staged kNN — DESIGN.md §15)
// and gathers it. A cluster node runs exactly this over its locally-owned
// shards, which makes it the cluster's only planner too; the router scatters
// once and repeats the same merge (core.MergeResults) one level up, across
// nodes (DESIGN.md §12).
package forest

import (
	"context"
	"errors"
	"fmt"
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

// scatter runs fn for every shard listed in idxs, bounded by the parallelism
// limit, and returns the first error (in shard order). Dispatch is
// admission-controlled: once ctx is canceled or any shard has recorded an
// error, no further shard work is issued — already-running shards wind down
// through their own ctx checks, but queued ones never start. Cancellation is
// re-checked after every slot acquisition: a dispatcher that waited for a
// slot can wake to find both the slot and the cancellation ready, and Go's
// select picks between ready cases at random, so without the re-check a
// canceled query could still issue one more shard's worth of work. On
// cancellation with no shard error the returned error matches
// core.ErrCanceled.
func (f *Forest) scatter(ctx context.Context, idxs []int, fn func(i int, t *core.Tree) error) error {
	limit := f.parallel
	if limit <= 0 || limit > len(idxs) {
		limit = len(idxs)
	}
	sem := make(chan struct{}, limit)
	errs := make([]error, len(f.trees))
	var failed atomic.Bool
	var wg sync.WaitGroup
dispatch:
	for _, i := range idxs {
		if failed.Load() || ctx.Err() != nil {
			break // stop issuing work; un-dispatched shards never run
		}
		// Acquire the slot before spawning, so a full pipeline blocks the
		// dispatcher (not a goroutine per shard) and cancellation while
		// waiting abandons the remaining shards outright.
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
			if err := fn(i, f.trees[i]); err != nil {
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

// allShards is the visit list of an unplanned scatter: every shard, in order.
func (f *Forest) allShards() []int {
	idxs := make([]int, len(f.trees))
	for i := range idxs {
		idxs[i] = i
	}
	return idxs
}

// Query answers one search request across the forest: it plans which shards
// to visit, scatters the request to them as core.Tree.Query, and merges the
// per-shard answers and QueryStats. This is the one gather body every
// operation runs through (DESIGN.md §12.3):
//
//   - OpRange visits the shards whose summary box can meet the query ball
//     (rangePlan) and concatenates their answers in ascending ID.
//   - OpKNN runs the staged visit when knnPlan can order the shards: the
//     most promising shard answers alone, and its k-th distance becomes the
//     Bound of the same request sent to the rest. A request that already
//     carries a bound is scattered flat with it. The per-shard top-k sets
//     merge under the total (dist, ID) order.
//   - OpKNNApprox scatters flat: every shard verifies at most MaxVerify
//     candidates, so the forest-wide budget is shards×MaxVerify.
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
	visit := f.allShards()
	var err error
	switch {
	case q.Op == core.OpRange:
		visit, plan.ShardsPruned = f.rangePlan(q.Q, q.Radius)
	case q.Op == core.OpKNN && !q.Bounded && q.K > 0:
		if order, staged := f.knnPlan(q.Q, q.K); staged {
			first := order[0]
			plan.Staged = true
			per[first], stats[first], err = f.trees[first].Query(ctx, q)
			q.Bounded, q.Bound = true, stageBound(per[first], q.K)
			visit = order[1:]
		}
	}
	if err == nil {
		err = f.scatter(ctx, visit, func(i int, t *core.Tree) error {
			res, qs, err := t.Query(ctx, q)
			if q.Op == core.OpKNNGraph && errors.Is(err, core.ErrNoGraph) {
				res, qs, err = t.Query(ctx, q.Exact())
			}
			per[i], stats[i] = res, qs
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
// every (Q-shard, O-shard) pair runs an independent SJA merge, all pairs in
// parallel — the shuffle-free join plan a shared-pivot partitioning allows.
func Join(fq, fo *Forest, eps float64) ([]core.JoinPair, error) {
	return JoinCtx(context.Background(), fq, fo, eps)
}

// JoinCtx is Join honoring ctx: shard pairs not yet dispatched when the
// context is canceled (or an earlier pair failed) never run, running pairs
// stop at the core join's cancellation checks, and the pairs gathered so far
// are returned with the first error (matching core.ErrCanceled on
// cancellation). The cluster router decomposes a cluster-wide join into
// node-local pair joins of this kind (DESIGN.md §12).
func JoinCtx(ctx context.Context, fq, fo *Forest, eps float64) ([]core.JoinPair, error) {
	qTrees, oTrees := fq.trees, fo.trees
	type task struct{ qi, oi int }
	var tasks []task
	for qi := range qTrees {
		for oi := range oTrees {
			tasks = append(tasks, task{qi, oi})
		}
	}
	limit := fq.parallel
	if limit <= 0 || limit > len(tasks) {
		limit = len(tasks)
	}
	sem := make(chan struct{}, limit)
	per := make([][]core.JoinPair, len(tasks))
	errs := make([]error, len(tasks))
	var failed atomic.Bool
	var wg sync.WaitGroup
dispatch:
	for ti, tk := range tasks {
		if failed.Load() || ctx.Err() != nil {
			break // stop issuing shard-pair work
		}
		select {
		case sem <- struct{}{}:
			if ctx.Err() != nil {
				break dispatch // canceled while waiting; the slot won the race
			}
		case <-ctx.Done():
			break dispatch
		}
		wg.Add(1)
		go func(ti int, tk task) {
			defer wg.Done()
			defer func() { <-sem }()
			per[ti], errs[ti] = core.JoinCtx(ctx, qTrees[tk.qi], oTrees[tk.oi], eps)
			if errs[ti] != nil {
				failed.Store(true)
			}
		}(ti, tk)
	}
	wg.Wait()
	var firstErr error
	for _, err := range errs {
		if err != nil {
			firstErr = err
			break
		}
	}
	if firstErr == nil && ctx.Err() != nil {
		firstErr = fmt.Errorf("%w: %w", core.ErrCanceled, context.Cause(ctx))
	}
	var out []core.JoinPair
	for _, pairs := range per {
		out = append(out, pairs...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Q.ID() != out[j].Q.ID() {
			return out[i].Q.ID() < out[j].Q.ID()
		}
		return out[i].O.ID() < out[j].O.ID()
	})
	return out, firstErr
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
