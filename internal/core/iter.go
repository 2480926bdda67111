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

	sc       *queryScratch // pivot distances, frontier, node and batch buffers
	qs       QueryStats    // sink for the shared push helpers' counters; unread
	pq       *mindHeap     // sc.pq: unexplored entries by lower bound
	verified resultHeap    // computed but not yet emitted results

	// pending holds a batch-verified run of entries not yet applied to the
	// result heap; entries apply one per loop turn, in pop order, so the
	// emission interleaving matches the unbatched scan exactly (their minds
	// still count as frontier lower bounds until applied).
	pending []iterPending
	pendIdx int
	noBatch bool // a coalesced read failed; stay on the scalar path

	locked bool // holds t.mu.RLock (durable trees only)
	err    error
}

// iterPending is one batch-verified entry awaiting application: its frontier
// lower bound, and — unless it was a record superseded by the write buffer
// (obj nil, applied as a no-op) — the object with its verdict against the
// iterator's limit.
type iterPending struct {
	mind   float64
	obj    metric.Object
	d      float64
	within bool
}

// frontier returns the best unexplored lower bound — the next pending entry's
// MIND if a batch is in flight, the heap minimum otherwise — and whether any
// frontier remains.
func (it *NearestIter) frontier() (float64, bool) {
	if it.pendIdx < len(it.pending) {
		return it.pending[it.pendIdx].mind, true
	}
	if it.pq.Len() > 0 {
		return it.pq.peekMind(), true
	}
	return 0, false
}

// release drops the pinned read lock, once.
func (it *NearestIter) release() {
	if it.locked {
		it.locked = false
		it.t.mu.RUnlock()
	}
}

// Close releases the tree read lock a durable-tree iterator holds, ending
// the scan. It is idempotent, safe after exhaustion, and a no-op for
// iterators over non-durable trees. Abandoning a durable iterator without
// closing it blocks mutators and Close on the tree indefinitely.
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
		// Apply one batch-verified entry per turn, keeping the emission
		// checks between applications.
		if it.pendIdx < len(it.pending) {
			p := it.pending[it.pendIdx]
			it.pendIdx++
			if p.obj != nil && p.within {
				heap.Push(&it.verified, Result{Object: p.obj, Dist: p.d, Exact: true})
			}
			continue
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
			// object within the limit: drain the heap and emit what remains.
			it.pq.items = it.pq.items[:0]
			continue
		}
		if !item.isNode() {
			if it.t.batch && !it.noBatch && it.pq.Len() > 0 && !it.pq.peekIsNode() && it.pq.peekMind() <= it.limit {
				// A run of in-limit entries sits atop the heap: verify the
				// block through the batch kernel (DESIGN.md §13) and stage it
				// in pending. Verification is against the fixed limit — never
				// a moving bound — so batching changes nothing but the kernel.
				if it.batchRun(it.pq.cand(item)) {
					continue
				}
				// A coalesced read failed: the run is back on the heap and the
				// scalar path below takes over (permanently, via noBatch).
			}
			c := it.pq.cand(item)
			obj := c.obj
			if obj == nil {
				var err error
				obj, err = it.t.raf.Read(c.val)
				if err != nil {
					it.err = err
					it.release()
					return Result{}, false
				}
				if it.t.deltaShadowed(obj.ID()) {
					continue // superseded by the write buffer
				}
			}
			d, within := it.t.verifyDist(it.q, obj, it.limit)
			if within {
				heap.Push(&it.verified, Result{Object: obj, Dist: d, Exact: true})
			}
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

// batchRun gathers first plus the consecutive non-node, in-limit entries atop
// the heap (up to knnIncrementalBlock), resolves them with one coalesced RAF
// read, and batch-verifies the survivors against the iterator's fixed limit
// into pending — every (d, within) pair bit-identical to the scalar
// verifyDist, records superseded by the write buffer staged as no-ops. It
// reports false when the coalesced read failed: the gathered extras are
// pushed back (the heap restores pop order), noBatch pins the scalar path,
// and the caller re-resolves first scalar-wise, surfacing any real read error
// at the same position the unbatched scan would.
func (it *NearestIter) batchRun(first knnCand) bool {
	kb := &it.sc.kb
	kb.cands = append(kb.cands[:0], first)
	for len(kb.cands) < knnIncrementalBlock && it.pq.Len() > 0 && !it.pq.peekIsNode() && it.pq.peekMind() <= it.limit {
		kb.cands = append(kb.cands, it.pq.cand(it.pq.pop()))
	}
	n := len(kb.cands)
	kb.grow(n)
	m := 0
	for _, x := range kb.cands {
		if x.obj == nil {
			kb.offsets[m] = x.val
			m++
		}
	}
	if m > 0 {
		if idx, err := it.t.raf.ReadBatch(kb.offsets[:m], kb.readObjs[:m], kb.plens[:m]); idx >= 0 || err != nil {
			for _, x := range kb.cands[1:] {
				it.pq.pushCand(x)
			}
			it.noBatch = true
			return false
		}
		for i := 0; i < m; i++ {
			it.t.raf.EmitRecordRead(kb.offsets[i], kb.plens[i])
		}
	}
	it.pending = it.pending[:0]
	it.pendIdx = 0
	j := 0
	for _, x := range kb.cands {
		p := iterPending{mind: x.mind, obj: x.obj}
		if p.obj == nil {
			o := kb.readObjs[j]
			j++
			if !it.t.deltaShadowed(o.ID()) {
				p.obj = o
			}
		}
		it.pending = append(it.pending, p)
	}
	probeIdx, probeObjs := kb.probeIdx[:0], kb.probeObjs[:0]
	for i := range it.pending {
		if it.pending[i].obj != nil {
			probeIdx = append(probeIdx, i)
			probeObjs = append(probeObjs, it.pending[i].obj)
		}
	}
	if len(probeObjs) > 0 {
		p := len(probeObjs)
		it.t.verifyBatch(it.sc.kernel(it.t, it.q), probeObjs, it.limit, kb.pd[:p], kb.pw[:p])
		for jj, i := range probeIdx {
			it.pending[i].d = kb.pd[jj]
			it.pending[i].within = kb.pw[jj]
		}
	}
	return true
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
