// Package forest implements the paper's future-work direction ("extend the
// SPB-tree to different distributed environments"): a partitioned SPB-tree.
// Objects are hash-partitioned across shards, every shard is an independent
// SPB-tree over the *same* pivot mapping (so pruning quality matches the
// monolithic index), and queries scatter to all shards in parallel and
// gather-merge the answers.
//
// Shards are addressed through the Shard interface, so a Forest can span
// local trees, RPC-backed remote trees (internal/cluster), or a mix: Build
// produces the all-local form (each shard owning its page stores, caches
// and counters, exactly as separate nodes would), and FromShards assembles
// a Forest over any shard set sharing one pivot mapping. The scatter-gather
// here is exactly what a cluster node runs over its locally-owned shards;
// the cluster router repeats the same merge one level up, across nodes
// (DESIGN.md §12).
package forest

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

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
	shards []Shard
	// trees mirrors shards with the concrete local tree where there is one
	// (nil for remote shards); the tree-only operations — joins, partner
	// builds, stats — require it.
	trees    []*core.Tree
	parallel int
	// adaptive enables the §15 scatter planning (shard pruning, staged kNN);
	// see SetAdaptive.
	adaptive bool
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
	f := &Forest{parallel: opts.Parallel, adaptive: true}
	first := opts.Tree
	t0, err := core.Build(parts[0], first)
	if err != nil {
		return nil, fmt.Errorf("forest: shard 0: %w", err)
	}
	f.addTree(t0)
	for i := 1; i < n; i++ {
		shOpts := opts.Tree
		shOpts.ShareMapping = t0
		t, err := core.Build(parts[i], shOpts)
		if err != nil {
			return nil, fmt.Errorf("forest: shard %d: %w", i, err)
		}
		f.addTree(t)
	}
	return f, nil
}

// addTree appends a local tree as the next shard.
func (f *Forest) addTree(t *core.Tree) {
	f.shards = append(f.shards, t)
	f.trees = append(f.trees, t)
}

// FromShards assembles a Forest over an existing shard set — local trees,
// remote handles, or a mix. All shards must share one pivot mapping (the
// caller's responsibility; remote shards cannot be checked from here).
// parallel bounds concurrent shard queries as in Options.Parallel. The
// tree-only operations (Join, BuildPartner, TakeStats) require every shard
// to be a local *core.Tree and error or no-op otherwise.
func FromShards(shards []Shard, parallel int) (*Forest, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("forest: FromShards needs at least one shard")
	}
	f := &Forest{parallel: parallel, adaptive: true}
	for _, s := range shards {
		f.shards = append(f.shards, s)
		t, _ := s.(*core.Tree)
		f.trees = append(f.trees, t)
	}
	return f, nil
}

// Shards returns the per-shard local trees (read-only use). Entries are nil
// for shards that are not local *core.Trees (a Forest assembled by
// FromShards over remote handles).
func (f *Forest) Shards() []*core.Tree { return f.trees }

// NumShards returns the shard count.
func (f *Forest) NumShards() int { return len(f.shards) }

// localTrees returns the concrete trees when every shard is local.
func (f *Forest) localTrees() ([]*core.Tree, error) {
	for i, t := range f.trees {
		if t == nil {
			return nil, fmt.Errorf("forest: shard %d is not a local tree", i)
		}
	}
	return f.trees, nil
}

// Len returns the total object count.
func (f *Forest) Len() int {
	n := 0
	for _, s := range f.shards {
		n += s.Len()
	}
	return n
}

// scatter runs fn for every shard, bounded by the parallelism limit, and
// returns the first error (in shard order). Dispatch is admission-controlled:
// once ctx is canceled or any shard has recorded an error, no further shard
// work is issued — already-running shards wind down through their own ctx
// checks, but queued ones never start. Cancellation is re-checked after every
// slot acquisition: a dispatcher that waited for a slot can wake to find both
// the slot and the cancellation ready, and Go's select picks between ready
// cases at random, so without the re-check a canceled query could still
// issue one more shard's worth of work. On cancellation with no shard error
// the returned error matches core.ErrCanceled.
func (f *Forest) scatter(ctx context.Context, fn func(i int, s Shard) error) error {
	idxs := make([]int, len(f.shards))
	for i := range idxs {
		idxs[i] = i
	}
	return f.scatterSubset(ctx, idxs, fn)
}

// scatterSubset is scatter over an explicit shard-index subset — the §15
// pruned and staged plans dispatch through it. Semantics are identical to
// scatter, with "every shard" meaning "every listed shard".
func (f *Forest) scatterSubset(ctx context.Context, idxs []int, fn func(i int, s Shard) error) error {
	limit := f.parallel
	if limit <= 0 || limit > len(idxs) {
		limit = len(idxs)
	}
	sem := make(chan struct{}, limit)
	errs := make([]error, len(f.shards))
	var failed atomic.Bool
	var wg sync.WaitGroup
dispatch:
	for _, i := range idxs {
		s := f.shards[i]
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
		go func(i int, s Shard) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := fn(i, s); err != nil {
				errs[i] = err
				failed.Store(true)
			}
		}(i, s)
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

// RangeQuery scatters RQ(q, shard, r) and concatenates the answers.
func (f *Forest) RangeQuery(q metric.Object, r float64) ([]core.Result, error) {
	return f.RangeQueryCtx(context.Background(), q, r)
}

// RangeQueryCtx is RangeQuery honoring ctx: shards not yet dispatched when
// the context is canceled never run, in-flight shards stop at their own
// cancellation checks, and the answers gathered so far are returned with an
// error matching core.ErrCanceled.
func (f *Forest) RangeQueryCtx(ctx context.Context, q metric.Object, r float64) ([]core.Result, error) {
	visit, _ := f.rangePlan(q, r)
	per := make([][]core.Result, len(f.shards))
	err := f.scatterSubset(ctx, visit, func(i int, s Shard) error {
		res, err := s.RangeSearchCtx(ctx, q, r)
		per[i] = res
		return err
	})
	return mergeRange(per), err
}

// RangeQueryWithStatsCtx is RangeQueryCtx, additionally gathering the
// per-shard QueryStats merged with core.QueryStats.Merge: work counters add
// across shards, wall clocks take the parallel maximum.
func (f *Forest) RangeQueryWithStatsCtx(ctx context.Context, q metric.Object, r float64) ([]core.Result, core.QueryStats, error) {
	visit, pruned := f.rangePlan(q, r)
	per := make([][]core.Result, len(f.shards))
	stats := make([]core.QueryStats, len(f.shards))
	err := f.scatterSubset(ctx, visit, func(i int, s Shard) error {
		res, qs, err := s.RangeSearchWithStatsCtx(ctx, q, r)
		per[i], stats[i] = res, qs
		return err
	})
	out := mergeRange(per)
	qs := gatherStats(stats, len(out))
	qs.Plan.ShardsTotal = len(f.shards)
	qs.Plan.ShardsPruned = pruned
	return out, qs, err
}

// KNN scatters kNN(q, k) to every shard and merges the per-shard top-k sets
// into the global top-k — the standard distributed-kNN reduction.
func (f *Forest) KNN(q metric.Object, k int) ([]core.Result, error) {
	return f.KNNCtx(context.Background(), q, k)
}

// KNNCtx is KNN honoring ctx, with the same partial-result contract as
// RangeQueryCtx: whatever the finished shards produced, merged and cut to k,
// plus an error matching core.ErrCanceled.
func (f *Forest) KNNCtx(ctx context.Context, q metric.Object, k int) ([]core.Result, error) {
	order, staged := f.knnPlan(q, k)
	if !staged {
		per := make([][]core.Result, len(f.shards))
		err := f.scatter(ctx, func(i int, s Shard) error {
			res, err := s.KNNCtx(ctx, q, k)
			per[i] = res
			return err
		})
		return MergeKNN(per, k), err
	}
	// Stage 1: the most promising shard answers plain canonical kNN; its
	// k-th distance bounds everyone else (§15.4).
	per := make([][]core.Result, len(f.shards))
	first := order[0]
	res0, err := f.shards[first].KNNCtx(ctx, q, k)
	per[first] = res0
	if err != nil {
		return MergeKNN(per, k), err
	}
	bound := stageBound(res0, k)
	// Stage 2: the remaining shards probe within the bound, in parallel.
	err = f.scatterSubset(ctx, order[1:], func(i int, s Shard) error {
		res, err := s.(BoundedKNN).KNNWithinCtx(ctx, q, k, bound)
		per[i] = res
		return err
	})
	return MergeKNN(per, k), err
}

// KNNWithStatsCtx is KNNCtx, additionally gathering the merged per-shard
// QueryStats.
func (f *Forest) KNNWithStatsCtx(ctx context.Context, q metric.Object, k int) ([]core.Result, core.QueryStats, error) {
	order, staged := f.knnPlan(q, k)
	per := make([][]core.Result, len(f.shards))
	stats := make([]core.QueryStats, len(f.shards))
	var err error
	if !staged {
		err = f.scatter(ctx, func(i int, s Shard) error {
			res, qs, err := s.KNNWithStatsCtx(ctx, q, k)
			per[i], stats[i] = res, qs
			return err
		})
	} else {
		first := order[0]
		per[first], stats[first], err = f.shards[first].KNNWithStatsCtx(ctx, q, k)
		if err == nil {
			bound := stageBound(per[first], k)
			err = f.scatterSubset(ctx, order[1:], func(i int, s Shard) error {
				res, qs, err := s.(BoundedKNN).KNNWithinWithStatsCtx(ctx, q, k, bound)
				per[i], stats[i] = res, qs
				return err
			})
		}
	}
	out := MergeKNN(per, k)
	qs := gatherStats(stats, len(out))
	qs.Plan.ShardsTotal = len(f.shards)
	if staged {
		qs.Plan.Staged = true
		qs.Plan.FirstShard = order[0]
	}
	return out, qs, err
}

// KNNApprox scatters budgeted approximate kNN: every shard verifies at most
// maxVerify candidates, so the forest-wide verification budget is
// shards×maxVerify. The per-shard answers merge like exact kNN.
func (f *Forest) KNNApprox(q metric.Object, k, maxVerify int) ([]core.Result, error) {
	return f.KNNApproxCtx(context.Background(), q, k, maxVerify)
}

// KNNApproxCtx is KNNApprox honoring ctx, with the usual partial-result
// contract.
func (f *Forest) KNNApproxCtx(ctx context.Context, q metric.Object, k, maxVerify int) ([]core.Result, error) {
	per := make([][]core.Result, len(f.shards))
	err := f.scatter(ctx, func(i int, s Shard) error {
		res, err := s.KNNApproxCtx(ctx, q, k, maxVerify)
		per[i] = res
		return err
	})
	return MergeKNN(per, k), err
}

// KNNApproxWithStatsCtx is KNNApproxCtx, additionally gathering the merged
// per-shard QueryStats.
func (f *Forest) KNNApproxWithStatsCtx(ctx context.Context, q metric.Object, k, maxVerify int) ([]core.Result, core.QueryStats, error) {
	per := make([][]core.Result, len(f.shards))
	stats := make([]core.QueryStats, len(f.shards))
	err := f.scatter(ctx, func(i int, s Shard) error {
		res, qs, err := s.KNNApproxWithStatsCtx(ctx, q, k, maxVerify)
		per[i], stats[i] = res, qs
		return err
	})
	out := MergeKNN(per, k)
	return out, gatherStats(stats, len(out)), err
}

// mergeRange concatenates per-shard range answers into the canonical
// ascending-ID order.
func mergeRange(per [][]core.Result) []core.Result {
	var out []core.Result
	for _, res := range per {
		out = append(out, res...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Object.ID() < out[j].Object.ID() })
	return out
}

// MergeKNN merges per-shard top-k result sets into the global top-k under
// the total (dist, ID) order — the standard distributed-kNN reduction.
// Because the order is total, the reduction is associative: merging
// per-shard answers per node and then per cluster yields exactly the merge
// of all shards at once, which is what makes node-local pre-merging safe.
func MergeKNN(per [][]core.Result, k int) []core.Result {
	var all []core.Result
	for _, res := range per {
		all = append(all, res...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].Object.ID() < all[j].Object.ID()
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// gatherStats merges per-shard stats and pins Results to the merged result
// count (per-shard Results sum to more than the global top-k keeps).
func gatherStats(stats []core.QueryStats, results int) core.QueryStats {
	var total core.QueryStats
	for _, qs := range stats {
		total.Merge(qs)
	}
	total.Results = results
	return total
}

// Join computes SJ(Q, O, ε) between two forests sharing one mapped space:
// every (Q-shard, O-shard) pair runs an independent SJA merge, all pairs in
// parallel — the shuffle-free join plan a shared-pivot partitioning allows.
// Both forests must consist of local trees (see JoinCtx).
func Join(fq, fo *Forest, eps float64) ([]core.JoinPair, error) {
	return JoinCtx(context.Background(), fq, fo, eps)
}

// JoinCtx is Join honoring ctx: shard pairs not yet dispatched when the
// context is canceled (or an earlier pair failed) never run, running pairs
// stop at the core join's cancellation checks, and the pairs gathered so far
// are returned with the first error (matching core.ErrCanceled on
// cancellation). Remote shards are not joinable from here — the cluster
// router decomposes a cluster-wide join into node-local pair joins instead
// (DESIGN.md §12).
func JoinCtx(ctx context.Context, fq, fo *Forest, eps float64) ([]core.JoinPair, error) {
	qTrees, err := fq.localTrees()
	if err != nil {
		return nil, fmt.Errorf("forest: join: %w", err)
	}
	oTrees, err := fo.localTrees()
	if err != nil {
		return nil, fmt.Errorf("forest: join: %w", err)
	}
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
// and shard count, the precondition for Join. The curve must be Z-order,
// and f's shards must be local trees.
func (f *Forest) BuildPartner(objs []metric.Object, opts Options) (*Forest, error) {
	if f.trees[0] == nil {
		return nil, fmt.Errorf("forest: BuildPartner needs local shards")
	}
	if opts.Shards == 0 {
		opts.Shards = len(f.shards)
	}
	opts.Tree.ShareMapping = f.trees[0]
	opts.Tree.Curve = sfc.ZOrder
	return Build(objs, opts)
}

// SetBoundedKernels toggles threshold-aware distance evaluation (see
// core.Tree.SetBoundedKernels) on every local shard. Enabling is a no-op
// when the metric implements no bounded kernel; remote shards are governed
// by their owning node's configuration and are skipped.
func (f *Forest) SetBoundedKernels(on bool) {
	for _, t := range f.trees {
		if t != nil {
			t.SetBoundedKernels(on)
		}
	}
}

// ResetStats resets every local shard.
func (f *Forest) ResetStats() {
	for _, t := range f.trees {
		if t != nil {
			t.ResetStats()
		}
	}
}

// TakeStats aggregates per-shard counters — the total work across the
// "cluster". Remote shards contribute nothing here; their counters live
// with their owning node (see the cluster stats RPC).
func (f *Forest) TakeStats() core.Stats {
	var total core.Stats
	for _, t := range f.trees {
		if t == nil {
			continue
		}
		st := t.TakeStats()
		total.PageAccesses += st.PageAccesses
		total.DistanceComputations += st.DistanceComputations
	}
	return total
}
