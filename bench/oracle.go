package main

import (
	"sort"

	"spbtree/internal/metric"
)

// neighbor is one oracle answer.
type neighbor struct {
	id   uint64
	dist float64
}

// before is the canonical (dist, ID) order every exact answer must follow.
func (a neighbor) before(b neighbor) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.id < b.id
}

// oracleKNN scans objs and returns q's k nearest under canonical order. It is
// the reference every index answer is judged against, so it shares nothing
// with the index: one Distance call per object, no pruning.
func oracleKNN(d metric.DistanceFunc, objs []metric.Object, q metric.Object, k int) []neighbor {
	best := make([]neighbor, 0, k+1)
	for _, o := range objs {
		nb := neighbor{id: o.ID(), dist: d.Distance(q, o)}
		if len(best) == k && !nb.before(best[k-1]) {
			continue
		}
		i := sort.Search(len(best), func(i int) bool { return nb.before(best[i]) })
		best = append(best, neighbor{})
		copy(best[i+1:], best[i:])
		best[i] = nb
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

// oracleRange scans objs and returns the IDs within r of q, ascending.
func oracleRange(d metric.DistanceFunc, objs []metric.Object, q metric.Object, r float64) []uint64 {
	var ids []uint64
	for _, o := range objs {
		if d.Distance(q, o) <= r {
			ids = append(ids, o.ID())
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// sameKNN reports whether an index answer equals the oracle's: same IDs and
// distances in the same order.
func sameKNN(got answer, want []neighbor) bool {
	if len(got.ids) != len(want) {
		return false
	}
	for i, w := range want {
		if got.ids[i] != w.id || got.dists[i] != w.dist {
			return false
		}
	}
	return true
}

// sameRange reports whether a range answer holds exactly the oracle's IDs.
// Order and distances are not compared: Lemma 2 admits answers without
// computing their distance, so an answer's Dist may be an upper bound.
func sameRange(got answer, want []uint64) bool {
	if len(got.ids) != len(want) {
		return false
	}
	ids := append([]uint64(nil), got.ids...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i, w := range want {
		if ids[i] != w {
			return false
		}
	}
	return true
}
