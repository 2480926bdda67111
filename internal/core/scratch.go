package core

import (
	"math"
	"sync"

	"spbtree/internal/bptree"
	"spbtree/internal/metric"
	"spbtree/internal/sfc"
)

// queryScratch holds everything one query builds that depends only on the
// query or is reused block after block — the pivot distances, the cell and
// box buffers, the decoded node, the kNN frontier and result heap, the
// candidate block with its decode slots and the prepared distance kernel — so
// the read path allocates per accepted candidate, not per node, block or
// verified candidate (DESIGN.md §9.7). A scratch belongs to one query at a time and is recycled
// through scratchPool.
type queryScratch struct {
	qvec []float64
	// Cell buffers: a node MBB and one entry's cell.
	boxLo, boxHi, cell sfc.Point

	// Windows tested on packed cell words: the range region RR, and the
	// Lemma 3 window of the bound mindBound (leafAdmits).
	rrWin, mindWin cellWindow
	mindBound      float64

	node  bptree.Node
	pq    frontier
	res   knnResults
	blk   candBlock
	stack []bptree.NodeRef
	// prep is the prepared kernel, kept from query to query for Prepare to
	// re-initialise (it holds no query object); prepared says it is this
	// query's.
	prep     metric.PreparedQuery
	prepared bool
}

var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

// getScratch returns a scratch sized for the tree's pivot count; pair it with
// release.
func (t *Tree) getScratch() *queryScratch {
	sc := scratchPool.Get().(*queryScratch)
	if n := len(t.pivots); len(sc.qvec) != n {
		sc.qvec = make([]float64, n)
		pts := make(sfc.Point, 3*n)
		for _, p := range []*sfc.Point{&sc.boxLo, &sc.boxHi, &sc.cell} {
			*p, pts = pts[:n:n], pts[n:]
		}
	}
	sc.mindBound = math.NaN() // no bound's window yet
	return sc
}

// release drops every reference to an object somebody else owns — a pooled
// scratch must not pin results or buffered inserts; the block's decode slots
// are its own and stay — and returns the scratch to the pool.
func (sc *queryScratch) release() {
	sc.prepared = false
	sc.pq.reset()
	sc.res.items = sc.res.items[:0]
	clear(sc.blk.cands[:cap(sc.blk.cands)])
	sc.blk.cands = sc.blk.cands[:0]
	clear(sc.res.items[:cap(sc.res.items)])
	clear(sc.blk.objs[:cap(sc.blk.objs)])
	scratchPool.Put(sc)
}

// kernel returns the query's prepared kernel on the unwrapped metric and the
// tree's codec, preparing it on first use (per-query work such as the Myers
// bitmaps is done once per query, not per block, and in the kernel the
// scratch kept from its last query).
func (sc *queryScratch) kernel(t *Tree, q metric.Object) metric.PreparedQuery {
	if !sc.prepared {
		sc.prep = metric.Prepare(t.dist.Unwrap(), t.codec, q, sc.prep)
		sc.prepared = true
	}
	return sc.prep
}

// pushBox pushes a node reference onto the frontier if its MBB's MIND is
// within bound (Lemma 3), counting the push or the prune.
func (t *Tree) pushBox(sc *queryScratch, ref bptree.NodeRef, bound float64, qs *QueryStats) {
	sfc.Unpack(ref.BoxLo, t.bits, sc.boxLo)
	sfc.Unpack(ref.BoxHi, t.bits, sc.boxHi)
	if mind := t.mindToBox(sc.qvec, sc.boxLo, sc.boxHi); mind <= bound {
		sc.pq.push(mindItem{mind: mind, ref: uint64(ref.Page)})
		qs.HeapPushes++
	} else {
		qs.NodesPruned++
	}
}

// leafAdmits reports whether the leaf entry with cell word cell passes
// Lemma 3 at bound — mindToCell(qvec, cell) ≤ bound — on the window of bound,
// which it derives again only when the bound has moved since the last call.
func (t *Tree) leafAdmits(sc *queryScratch, cell uint64, bound float64) bool {
	if bound != sc.mindBound {
		t.setMIND(&sc.mindWin, sc.qvec, bound)
		sc.mindBound = bound
	}
	return sc.mindWin.admits(cell)
}

// seedDelta pushes every buffered insert onto the frontier with its
// mapped-space MIND lower bound, exactly as if it were a leaf entry of the
// base tree; the carried object lets verification skip the RAF read. Callers
// hold the read lock.
func (t *Tree) seedDelta(sc *queryScratch, qs *QueryStats) {
	for _, e := range t.deltaEntriesSorted() {
		qs.EntriesScanned++
		sfc.Unpack(e.cell, t.bits, sc.cell)
		sc.pq.pushDelta(t.mindToCell(sc.qvec, sc.cell), e.obj)
		qs.HeapPushes++
	}
}

// mindItem is a frontier element of Algorithm 2, pointer-free so sifting it
// needs no write barriers and the frontier's backing array is invisible to
// the garbage collector. ref is a tree node's page or a buffered insert's
// object ID; ins is zero for a node and, for a buffered insert, one plus its
// index in the frontier's side slice.
type mindItem struct {
	mind float64
	ref  uint64
	ins  uint32
}

func (x mindItem) isNode() bool { return x.ins == 0 }

// mindLess is a total order on frontier items: MIND first, then nodes before
// buffered inserts, then page or object ID. Totality matters twice —
// equal-MIND items pop in the same relative order in every execution, so
// however the pops are cut into blocks the candidate sequence is the same
// (and with it Verified/Compdists), and results never depend on the
// frontier's internals.
func mindLess(a, b mindItem) bool {
	if a.mind != b.mind {
		return a.mind < b.mind
	}
	if an, bn := a.isNode(), b.isNode(); an != bn {
		return an
	}
	return a.ref < b.ref
}

// frontier is Algorithm 2's priority queue: tree nodes and buffered inserts
// in a binary min-heap under mindLess (no container/heap boxing). An exact
// search verifies a leaf when it reaches it, so leaf entries never enter it.
type frontier struct {
	items []mindItem
	delta []metric.Object // buffered-insert objects the items' ins index
}

// Len reports the number of heap items; it is zero exactly when the frontier
// is empty.
func (f *frontier) Len() int { return len(f.items) }

// reset empties the frontier, dropping its references to buffered inserts.
func (f *frontier) reset() {
	f.items = f.items[:0]
	clear(f.delta[:cap(f.delta)])
	f.delta = f.delta[:0]
}

// push adds one item.
func (f *frontier) push(x mindItem) {
	f.items = append(f.items, x)
	f.up(len(f.items)-1, x)
}

// pushDelta pushes a buffered insert with its MIND bound.
func (f *frontier) pushDelta(bound float64, obj metric.Object) {
	f.delta = append(f.delta, obj)
	f.push(mindItem{mind: bound, ref: obj.ID(), ins: uint32(len(f.delta))})
}

// up sifts x from the hole at i toward the root.
func (f *frontier) up(i int, x mindItem) {
	items := f.items
	for i > 0 {
		parent := (i - 1) / 2
		if !mindLess(x, items[parent]) {
			break
		}
		items[i] = items[parent]
		i = parent
	}
	items[i] = x
}

// pop removes and returns the minimum; the frontier must be non-empty.
func (f *frontier) pop() mindItem {
	items := f.items
	top := items[0]
	n := len(items) - 1
	f.items = items[:n]
	if n > 0 {
		// Walk the hole down along the smaller children to the bottom, then
		// sift the displaced last item up from there: it came from the bottom
		// row and rarely climbs, which halves the comparisons of a sift-down.
		i := 0
		for c := 1; c < n; c = 2*i + 1 {
			if c+1 < n && mindLess(items[c+1], items[c]) {
				c++
			}
			items[i] = items[c]
			i = c
		}
		f.up(i, items[n])
	}
	return top
}

// peekIsNode reports whether the frontier's minimum is a tree node; the
// frontier must be non-empty.
func (f *frontier) peekIsNode() bool { return f.items[0].isNode() }

// candidate returns the block candidate of x, a buffered insert just popped.
func (f *frontier) candidate(x mindItem) candidate {
	return candidate{bound: x.mind, obj: f.delta[x.ins-1]}
}
