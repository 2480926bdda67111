package forest

import (
	"math"

	"spbtree/internal/core"
	"spbtree/internal/metric"
)

// This file is the forest side of DESIGN.md §15: shard pruning for range
// queries and the two-stage bounded kNN scatter. Both are planning-only —
// they change which shards run and with what bound, never what the merged
// answer contains. Range pruning skips shards whose per-pivot MBB summary
// proves they cannot intersect the query ball; staged kNN visits the most
// promising shard first and probes the rest with its k-th distance as a
// seed bound (sound because every shard answers the canonical (dist, ID)
// top-k — §15.1/§15.2). Any hint failure degrades to the flat scatter.

// SetAdaptive toggles the §15 adaptive scatter (shard pruning and staged
// kNN); on by default. Off restores the unconditional flat scatter — the
// escape hatch benchmarks compare against, and the results are byte-identical
// either way. Not safe to toggle concurrently with queries (like the other
// forest-wide configuration setters).
func (f *Forest) SetAdaptive(on bool) { f.adaptive = on }

// Adaptive reports whether the adaptive scatter is enabled.
func (f *Forest) Adaptive() bool { return f.adaptive }

// rangePlan decides which shards a range query must visit. It returns the
// visit list and how many shards were proven irrelevant; on a hint failure
// the shard stays in the visit list — pruning only ever skips shards whose
// summary box provably misses the query ball.
func (f *Forest) rangePlan(q metric.Object, r float64) (visit []int, pruned int) {
	if !f.adaptive {
		return f.allShards(), 0
	}
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
// when every hint succeeds — otherwise the query falls back to the flat
// scatter, which returns the identical answer.
func (f *Forest) knnPlan(q metric.Object, k int) (order []int, staged bool) {
	if !f.adaptive || len(f.trees) < 2 {
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
