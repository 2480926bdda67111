package forest

import (
	"math"

	"spbtree/internal/core"
	"spbtree/internal/metric"
)

// This file is the scatter planner of DESIGN.md §15 — the only one: a cluster
// node plans over the shards it owns by running them as a Forest, and the
// router plans nothing. It holds shard pruning for range queries and the
// two-stage bounded kNN scatter. Both are planning-only — they change which
// shards run and with what bound, never what the merged answer contains.
// Range pruning skips shards whose per-pivot MBB summary proves they cannot
// intersect the query ball; staged kNN visits the most promising shard first
// and probes the rest with its k-th distance as a seed bound (sound because
// every shard answers the canonical (dist, ID) top-k — §15.1/§15.2). Hints
// are in-process calls that cost |P| uncounted distances and no I/O; any hint
// failure degrades to the flat scatter.

// rangePlan decides which shards a range query must visit. It returns the
// visit list and how many shards were proven irrelevant; on a hint failure
// the shard stays in the visit list — pruning only ever skips shards whose
// summary box provably misses the query ball.
func (f *Forest) rangePlan(q metric.Object, r float64) (visit []int, pruned int) {
	visit = make([]int, 0, len(f.trees))
	for i, t := range f.trees {
		if h, err := t.RangeHint(q, r); err == nil && h.Prunable {
			pruned++
			continue
		}
		visit = append(visit, i)
	}
	return visit, pruned
}

// knnPlan orders shards for the staged kNN visit: ascending box MinDist
// (how close the shard's contents can possibly be), predicted distance work
// as the tie-break, shard index last for determinism. Staging applies only
// to two or more shards and when every hint succeeds — otherwise the query
// falls back to the flat scatter, which returns the identical answer.
func (f *Forest) knnPlan(q metric.Object, k int) (order []int, staged bool) {
	if len(f.trees) < 2 {
		return nil, false
	}
	hints := make([]core.ShardHint, len(f.trees))
	for i, t := range f.trees {
		h, err := t.KNNHint(q, k)
		if err != nil {
			return nil, false
		}
		hints[i] = h
	}
	return core.StagedOrder(hints), true
}

// stageBound extracts the seed bound for the staged scatter's second stage:
// the first shard's k-th distance when it filled k, +∞ otherwise (a shard
// smaller than k bounds nothing).
func stageBound(res []core.Result, k int) float64 {
	if len(res) == k {
		return res[k-1].Dist
	}
	return math.Inf(1)
}
