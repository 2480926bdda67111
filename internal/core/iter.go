package core

import (
	"container/heap"
	"math"

	"spbtree/internal/metric"
	"spbtree/internal/page"
)

// NearestIter starts an incremental nearest-neighbor scan from q in the
// style of Hjaltason and Samet: Next returns indexed objects in ascending
// distance order, lazily, so callers can consume exactly as many neighbors
// as they need (distance-ordered joins, result pagination) without fixing k
// in advance.
//
// The iterator interleaves two priority queues: the Algorithm-2 MIND heap
// over tree entries and a result heap of already-verified objects. An object
// is emitted once its exact distance is no larger than the best unexplored
// lower bound, which guarantees global ordering.
func (t *Tree) NearestIter(q metric.Object) *NearestIter {
	return t.NearestIterWithin(q, math.Inf(1))
}

// NearestIterWithin is NearestIter restricted to objects within distance
// limit of q: the same ascending-distance scan, but entries whose mapped-
// space lower bound exceeds the limit are never explored (the MIND heap pops
// in nondecreasing order, so the scan stops outright), and with a
// threshold-aware metric (DESIGN.md §10) each verification runs against the
// limit so out-of-range objects abandon early. Objects at exactly the limit
// are emitted. A +Inf limit is exactly NearestIter.
//
// On a durable tree the iterator pins the tree by holding its read lock from
// creation until it is exhausted, fails, or is Closed — buffered inserts join
// the scan and superseded base records are skipped, so the emitted sequence
// matches a tree rebuilt over the live set. Consequently a goroutine may not
// mutate the tree (Insert/Delete/CompactNow/Close) while it still holds an
// unfinished durable iterator; call Close first. Iterators over non-durable
// trees are lock-free, as before.
func (t *Tree) NearestIterWithin(q metric.Object, limit float64) *NearestIter {
	// The scratch stays with the iterator (Next may be called after
	// exhaustion), so it is never released back to the pool.
	it := &NearestIter{t: t, q: q, limit: limit, sc: t.getScratch()}
	it.pq = &it.sc.pq
	if t.dur != nil {
		t.mu.RLock()
		it.locked = true
		if t.closed {
			it.release()
			it.err = ErrClosed
			return it
		}
	}
	t.phi(q, it.sc.qvec)
	if root, ok := t.bpt.Root(); ok {
		t.pushBox(it.sc, root, math.Inf(1), &it.qs)
	}
	t.seedDelta(it.sc, &it.qs)
	return it
}

// NearestIter yields objects in ascending distance order; see
// Tree.NearestIter.
type NearestIter struct {
	t     *Tree
	q     metric.Object
	limit float64 // emit only objects with d ≤ limit; +Inf = unbounded

	sc       *queryScratch // pivot distances, frontier, node and block buffers
	qs       QueryStats    // sink for the shared push helpers' counters; unread
	pq       *frontier     // sc.pq: unexplored entries by lower bound
	verified resultHeap    // computed but not yet emitted results

	// sc.blk's candidates [pendIdx, pendEnd) are a resolved run of entries
	// not yet applied to the result heap; they apply one per loop turn, in
	// pop order, so the emission interleaving is that of a scan that
	// verifies one entry at a time (their MINDs still count as frontier
	// lower bounds until applied). A non-nil pendErr is the read error of
	// candidate pendEnd, which ends the scan when its turn comes.
	pendIdx, pendEnd int
	pendErr          error

	locked bool // holds t.mu.RLock (durable trees only)
	err    error
}

// frontier returns the best unexplored lower bound — the next pending entry's
// MIND if a run is in flight, the heap minimum otherwise — and whether any
// frontier remains.
func (it *NearestIter) frontier() (float64, bool) {
	if it.pendIdx < it.pendEnd || it.pendErr != nil {
		return it.sc.blk.cands[it.pendIdx].bound, true
	}
	if it.pq.Len() > 0 {
		return it.pq.peekMind(), true
	}
	return 0, false
}

// release drops the pinned read lock, once, and hands the record arena's
// chunks back to their free list: the iterator's scratch never returns to
// the pool.
func (it *NearestIter) release() {
	it.pq.dropRecs()
	if it.locked {
		it.locked = false
		it.t.mu.RUnlock()
	}
}

// Close releases the tree read lock a durable-tree iterator holds, ending
// the scan, and hands back the records the scan copied ahead (DESIGN.md
// §9.7). It is idempotent and safe after exhaustion; over a non-durable tree
// that is all it does. Abandoning a durable iterator without closing it
// blocks mutators and Close on the tree indefinitely.
func (it *NearestIter) Close() { it.release() }

// Next returns the next nearest object; ok is false when the index is
// exhausted or an error occurred (check Err). Exhaustion and errors release
// a durable iterator's lock automatically.
func (it *NearestIter) Next() (res Result, ok bool) {
	if it.err != nil {
		return Result{}, false
	}
	for {
		// Emit a verified result once nothing unexplored can beat it.
		if front, ok := it.frontier(); len(it.verified) > 0 && (!ok || it.verified[0].Dist <= front) {
			return heap.Pop(&it.verified).(Result), true
		}
		// Apply one resolved entry per turn, keeping the emission checks
		// between applications; a record the write buffer supersedes applies
		// as a no-op.
		if i := it.pendIdx; i < it.pendEnd {
			it.pendIdx++
			if b := &it.sc.blk; !b.tomb[i] && b.within[i] {
				heap.Push(&it.verified, Result{Object: b.keep(i), Dist: b.d[i], Exact: true})
			}
			continue
		}
		if it.pendErr != nil {
			it.err = it.pendErr
			it.release()
			return Result{}, false
		}
		if it.pq.Len() == 0 {
			if len(it.verified) == 0 {
				it.release()
			}
			return Result{}, false
		}
		item := it.pq.pop()
		if item.mind > it.limit {
			// MIND values pop in nondecreasing order (children's bounds are
			// never below their parent's), so nothing unexplored can hold an
			// object within the limit: drain the frontier and emit what
			// remains.
			it.pq.reset()
			continue
		}
		if !item.isNode() {
			it.batchRun(item)
			continue
		}
		if err := it.t.readNode(it.sc, page.ID(item.ref)); err != nil {
			it.err = err
			it.release()
			return Result{}, false
		}
		it.t.pushNode(it.sc, math.Inf(1), &it.qs)
	}
}

// batchRun gathers first plus the consecutive non-node, in-limit entries
// atop the heap (up to knnIncrementalBlock) and resolves them as one block
// (DESIGN.md §13) against the iterator's fixed limit — never a moving bound,
// so every (d, within) pair is what verifying the entry alone would give —
// leaving the run pending. A leaf run's records within the limit are copied
// at the first pop of its unread entry, as in kNN.
func (it *NearestIter) batchRun(first mindItem) {
	t, b := it.t, &it.sc.blk
	b.cands = b.cands[:0]
	t.admit(it.sc, first, it.limit, math.MaxInt64, &it.qs)
	for len(b.cands) < knnIncrementalBlock && it.pq.Len() > 0 && !it.pq.peekIsNode() && it.pq.peekMind() <= it.limit {
		t.admit(it.sc, it.pq.pop(), it.limit, math.MaxInt64, &it.qs)
	}
	var probed int
	it.pendIdx = 0
	it.pendEnd, probed, it.pendErr = t.resolveBlock(it.sc, it.q, it.limit, &it.qs)
	t.dist.Add(int64(probed))
	for i, c := range b.cands[:it.pendEnd] {
		if c.obj == nil {
			t.raf.EmitRecordRead(c.val, b.plens[i])
		}
	}
}

// Err returns the first error the iterator encountered.
func (it *NearestIter) Err() error { return it.err }

// resultHeap is a min-heap of verified results by distance (ties by id for
// determinism).
type resultHeap []Result

func (h resultHeap) Len() int { return len(h) }
func (h resultHeap) Less(i, j int) bool {
	if h[i].Dist != h[j].Dist {
		return h[i].Dist < h[j].Dist
	}
	return h[i].Object.ID() < h[j].Object.ID()
}
func (h resultHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x interface{}) { *h = append(*h, x.(Result)) }
func (h *resultHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
