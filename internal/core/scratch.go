package core

import (
	"sync"

	"spbtree/internal/bptree"
	"spbtree/internal/metric"
	"spbtree/internal/page"
	"spbtree/internal/sfc"
)

// queryScratch holds everything one query builds that depends only on the
// query or is reused block after block — the pivot distances, the SFC cell
// and box buffers, the decoded node, the kNN frontier and result heap, the
// candidate block with its decode slots and the prepared distance kernel — so
// the read path allocates per accepted candidate, not per node, block or
// verified candidate (DESIGN.md §9.7). A scratch belongs to one query at a time and is recycled
// through scratchPool.
type queryScratch struct {
	qvec []float64
	// Cell buffers: a node MBB, one entry's cell, the range region and its
	// intersection with a leaf MBB.
	boxLo, boxHi, cell, rrLo, rrHi, iLo, iHi sfc.Point

	node  bptree.Node
	cells []uint32 // a leaf's keys, block-decoded: entry i at [i*dims, (i+1)*dims)
	pq    mindHeap
	res   knnResults
	blk   candBlock
	stack []bptree.NodeRef
	prep  metric.PreparedQuery
}

var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

// getScratch returns a scratch sized for the tree's pivot count; pair it with
// release.
func (t *Tree) getScratch() *queryScratch {
	sc := scratchPool.Get().(*queryScratch)
	if n := len(t.pivots); len(sc.qvec) != n {
		sc.qvec = make([]float64, n)
		pts := make(sfc.Point, 7*n)
		for _, p := range []*sfc.Point{&sc.boxLo, &sc.boxHi, &sc.cell, &sc.rrLo, &sc.rrHi, &sc.iLo, &sc.iHi} {
			*p, pts = pts[:n:n], pts[n:]
		}
	}
	return sc
}

// release drops every reference to an object somebody else owns — a pooled
// scratch must not pin results or buffered inserts; the block's decode slots
// are its own and stay — and returns the scratch to the pool.
func (sc *queryScratch) release() {
	sc.prep = nil
	sc.pq.items, sc.pq.delta = sc.pq.items[:0], sc.pq.delta[:0]
	sc.res.items = sc.res.items[:0]
	clear(sc.blk.cands[:cap(sc.blk.cands)])
	sc.blk.cands = sc.blk.cands[:0]
	clear(sc.res.items[:cap(sc.res.items)])
	for _, objs := range [][]metric.Object{sc.pq.delta, sc.blk.objs, sc.blk.probeObjs} {
		clear(objs[:cap(objs)])
	}
	scratchPool.Put(sc)
}

// kernel returns the query's prepared batch kernel on the unwrapped metric,
// building it on first use (per-query work such as the Myers bitmaps is done
// once per query, not per block).
func (sc *queryScratch) kernel(t *Tree, q metric.Object) metric.PreparedQuery {
	if sc.prep == nil {
		sc.prep = metric.Prepare(t.dist.Unwrap(), q)
	}
	return sc.prep
}

// readNode decodes node id into sc.node; a leaf's keys are decoded into
// sc.cells in one block call.
func (t *Tree) readNode(sc *queryScratch, id page.ID) error {
	if err := t.bpt.ReadNode(id, &sc.node); err != nil {
		return err
	}
	if sc.node.Leaf {
		n := len(sc.node.Keys) * len(sc.cell)
		if cap(sc.cells) < n {
			sc.cells = make([]uint32, n)
		}
		sc.cells = sc.cells[:n]
		t.curve.DecodeBlock(sc.node.Keys, sc.cells)
	}
	return nil
}

// cellAt returns the decoded cell of the current leaf's entry i.
func (sc *queryScratch) cellAt(i int) sfc.Point {
	n := len(sc.cell)
	return sc.cells[i*n : (i+1)*n : (i+1)*n]
}

// pushBox pushes a node reference onto the frontier if its MBB's MIND is
// within bound (Lemma 3), counting the push or the prune.
func (t *Tree) pushBox(sc *queryScratch, ref bptree.NodeRef, bound float64, qs *QueryStats) {
	t.curve.Decode(ref.BoxLo, sc.boxLo)
	t.curve.Decode(ref.BoxHi, sc.boxHi)
	if mind := t.mindToBox(sc.qvec, sc.boxLo, sc.boxHi); mind <= bound {
		sc.pq.push(mindItem{mind: mind, ref: uint64(ref.Page), tag: tagNode})
		qs.HeapPushes++
	} else {
		qs.NodesPruned++
	}
}

// pushNode pushes what survives bound of the node just read: an internal
// node's children, or a leaf's entries (the best-first traversals; greedy
// callers scan leaves themselves).
func (t *Tree) pushNode(sc *queryScratch, bound float64, qs *QueryStats) {
	for _, c := range sc.node.Children {
		t.pushBox(sc, c, bound, qs)
	}
	for i, val := range sc.node.Vals {
		qs.EntriesScanned++
		if mind := t.mindToCell(sc.qvec, sc.cellAt(i)); mind <= bound {
			sc.pq.push(mindItem{mind: mind, ref: val, tag: tagEntry})
			qs.HeapPushes++
		} else {
			qs.EntriesPruned++ // Lemma 3
		}
	}
}

// seedDelta pushes every buffered insert onto the frontier with its
// mapped-space MIND lower bound, exactly as if it were a leaf entry of the
// base tree; the carried object lets verification skip the RAF read. Callers
// hold the read lock.
func (t *Tree) seedDelta(sc *queryScratch, qs *QueryStats) {
	for _, e := range t.deltaEntriesSorted() {
		qs.EntriesScanned++
		t.curve.Decode(e.key, sc.cell)
		sc.pq.pushCand(candidate{bound: t.mindToCell(sc.qvec, sc.cell), obj: e.obj})
		qs.HeapPushes++
	}
}

// mindItem is a heap element of Algorithm 2, pointer-free so sifting it needs
// no write barriers and the frontier's backing array is invisible to the
// garbage collector: ref is a tree node's page, a leaf entry's RAF offset, or
// a buffered insert's object ID, and tag tells which — tagNode, tagEntry, or
// tagDelta+i for the buffered insert at index i of the heap's side slice.
type mindItem struct {
	mind float64
	ref  uint64
	tag  uint32
}

const (
	tagNode uint32 = iota
	tagEntry
	tagDelta
)

func (x mindItem) isNode() bool { return x.tag == tagNode }

// mindLess is a total order on heap items: MIND first, then nodes before
// entries, then base entries before write-buffer entries, then page, offset
// or object ID. Totality matters twice — equal-MIND items pop in the same
// relative order in every execution, so however the pops are cut into
// blocks the candidate sequence is the same (and with it
// Verified/Compdists), and results never depend on heap internals.
func mindLess(a, b mindItem) bool {
	if a.mind != b.mind {
		return a.mind < b.mind
	}
	if ka, kb := min(a.tag, tagDelta), min(b.tag, tagDelta); ka != kb {
		return ka < kb
	}
	return a.ref < b.ref
}

// mindHeap is a concrete binary min-heap of mindItems (no container/heap
// boxing: Algorithm 2 pushes once per admitted entry); delta holds the
// buffered-insert objects the items' tags index.
type mindHeap struct {
	items []mindItem
	delta []metric.Object
}

func (h *mindHeap) Len() int { return len(h.items) }

func (h *mindHeap) push(x mindItem) {
	h.items = append(h.items, x)
	h.up(len(h.items)-1, x)
}

// up sifts x from the hole at i toward the root.
func (h *mindHeap) up(i int, x mindItem) {
	items := h.items
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

func (h *mindHeap) pop() mindItem {
	items := h.items
	top := items[0]
	n := len(items) - 1
	h.items = items[:n]
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
		h.up(i, items[n])
	}
	return top
}

// pushCand pushes a leaf entry, or — with obj set — a buffered insert.
func (h *mindHeap) pushCand(c candidate) {
	if c.obj == nil {
		h.push(mindItem{mind: c.bound, ref: c.val, tag: tagEntry})
		return
	}
	h.push(mindItem{mind: c.bound, ref: c.obj.ID(), tag: tagDelta + uint32(len(h.delta))})
	h.delta = append(h.delta, c.obj)
}

// cand resolves a popped non-node item to the candidate it stands for.
func (h *mindHeap) cand(x mindItem) candidate {
	if x.tag >= tagDelta {
		return candidate{bound: x.mind, obj: h.delta[x.tag-tagDelta]}
	}
	return candidate{bound: x.mind, val: x.ref}
}

// peekMind returns the minimum MIND without popping; the heap must be
// non-empty.
func (h *mindHeap) peekMind() float64 { return h.items[0].mind }

// peekIsNode reports whether the heap minimum is a tree node; the heap must
// be non-empty.
func (h *mindHeap) peekIsNode() bool { return h.items[0].isNode() }
