package core

import (
	"math"
	"sort"

	"spbtree/internal/metric"
	"spbtree/internal/sfc"
)

// ShardSummary describes a tree's footprint in its own mapped (pivot) space,
// for forest/cluster shard planning: a per-pivot bounding box over every live
// object's raw pivot distances, derived from the B+-tree root MBB unioned
// with the buffered inserts' cells. The box is conservative — tombstoned base
// records still widen it until compaction — so pruning against it only ever
// skips provably-empty shards.
type ShardSummary struct {
	// Count is the shard's live object total.
	Count int
	// Lo and Hi bound d(o, p_i) for every live object o and pivot p_i. An
	// empty shard reports Lo[i] > Hi[i] (an empty interval).
	Lo, Hi []float64
}

// Summary returns the tree's shard summary. An empty tree returns
// Count = 0 with empty (inverted) intervals.
func (t *Tree) Summary() (ShardSummary, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return ShardSummary{}, ErrClosed
	}
	return t.summaryLocked(), nil
}

// summaryLocked builds the summary under the read lock the caller holds.
func (t *Tree) summaryLocked() ShardSummary {
	n := len(t.pivots)
	lo := make([]float64, n)
	hi := make([]float64, n)
	for i := range lo {
		lo[i] = math.Inf(1)
		hi[i] = math.Inf(-1)
	}
	s := ShardSummary{Count: t.count, Lo: lo, Hi: hi}
	if root, ok := t.bpt.Root(); ok {
		bl := make(sfc.Point, n)
		bh := make(sfc.Point, n)
		sfc.Unpack(root.BoxLo, t.bits, bl)
		sfc.Unpack(root.BoxHi, t.bits, bh)
		for i := 0; i < n; i++ {
			lo[i] = t.cellLower(bl[i])
			hi[i] = t.cellUpper(bh[i])
		}
	}
	if t.deltaActive() {
		cell := make(sfc.Point, n)
		for _, e := range t.deltaEntriesSorted() {
			sfc.Unpack(e.cell, t.bits, cell)
			for i := 0; i < n; i++ {
				if l := t.cellLower(cell[i]); l < lo[i] {
					lo[i] = l
				}
				if h := t.cellUpper(cell[i]); h > hi[i] {
					hi[i] = h
				}
			}
		}
	}
	return s
}

// boxMinDist is the L∞ distance from qvec to the summary box — by the
// triangle inequality (d(q,o) ≥ |d(q,p_i) − d(o,p_i)| for every pivot) a
// lower bound on d(q, o) over every live object o of the shard. An empty box
// returns +Inf: an empty shard is infinitely far from everything.
func boxMinDist(qvec, lo, hi []float64) float64 {
	mind := 0.0
	for i, qv := range qvec {
		if lo[i] > hi[i] {
			return math.Inf(1)
		}
		if diff := lo[i] - qv; diff > mind {
			mind = diff
		}
		if diff := qv - hi[i]; diff > mind {
			mind = diff
		}
	}
	return mind
}

// ShardHint is one shard's answer to "how relevant and how expensive is this
// query here?" — the planning input of the forest's shard pruning and staged
// kNN scatter (DESIGN.md §15). Each shard computes its hint against its own
// pivots, so hints compose across shards that do not share a mapping. A hint
// is an in-process value: a cluster node computes it over the shards it owns
// and it never crosses the wire.
type ShardHint struct {
	// MinDist lower-bounds d(q, o) over the shard's live objects (+Inf for
	// an empty shard). For a range query at radius r, MinDist > r proves the
	// shard contributes nothing.
	MinDist float64
	// Prunable reports exactly that proof (range hints only).
	Prunable bool
	// EDC/EPA are the shard's cost-model predictions for this query, valid
	// only when Estimated — a dirty cost model (writes since the last
	// snapshot) withholds them rather than rebuilding under the read lock.
	EDC, EPA  float64
	Estimated bool
}

// StagedOrder returns the shard visit order of a staged kNN scatter from
// per-shard KNNHints (indexed by shard): ascending box MinDist (how close the
// shard's contents can possibly be), predicted distance work as the tie-break
// when both hints carry an estimate, shard index last for determinism. The
// forest and spbtool explain both order by this one rule.
func StagedOrder(hints []ShardHint) []int {
	order := make([]int, len(hints))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ha, hb := hints[order[a]], hints[order[b]]
		if ha.MinDist != hb.MinDist {
			return ha.MinDist < hb.MinDist
		}
		if ha.Estimated && hb.Estimated && ha.EDC != hb.EDC {
			return ha.EDC < hb.EDC
		}
		return order[a] < order[b]
	})
	return order
}

// hintEstSampleCap bounds the reservoir scan of a kNN hint's eND_k estimate,
// so hinting stays a small fraction of the query it orders.
const hintEstSampleCap = 256

// RangeHint returns the shard's relevance and cost hint for RangeQuery(q, r).
// The φ(q) computation uses the unwrapped metric, so probing shards for
// hints never perturbs compdists accounting on shards that end up pruned;
// the forest adds the mapping cost once per visited shard.
func (t *Tree) RangeHint(q metric.Object, r float64) (ShardHint, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return ShardHint{}, ErrClosed
	}
	if t.count == 0 {
		return ShardHint{MinDist: math.Inf(1), Prunable: true}, nil
	}
	qvec := t.quietPhi(q)
	s := t.summaryLocked()
	h := ShardHint{MinDist: boxMinDist(qvec, s.Lo, s.Hi)}
	h.Prunable = h.MinDist > r
	if !t.cm.dirty && !h.Prunable {
		ce := t.estimateRangeVec(qvec, r)
		h.EDC, h.EPA, h.Estimated = ce.EDC, ce.EPA, true
	}
	return h, nil
}

// KNNHint returns the shard's relevance and cost hint for KNN(q, k): MinDist
// orders shards by how close their contents can possibly be, EDC/EPA (at the
// estimated eND_k radius) order equally-close shards by predicted work.
func (t *Tree) KNNHint(q metric.Object, k int) (ShardHint, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return ShardHint{}, ErrClosed
	}
	if t.count == 0 {
		return ShardHint{MinDist: math.Inf(1)}, nil
	}
	qvec := t.quietPhi(q)
	s := t.summaryLocked()
	h := ShardHint{MinDist: boxMinDist(qvec, s.Lo, s.Hi)}
	if !t.cm.dirty {
		ce := t.estimateKNNVec(qvec, k, hintEstSampleCap)
		h.EDC, h.EPA, h.Estimated = ce.EDC, ce.EPA, true
	}
	return h, nil
}
