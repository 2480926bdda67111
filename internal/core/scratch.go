package core

import (
	"math"
	"sync"

	"spbtree/internal/bptree"
	"spbtree/internal/metric"
	"spbtree/internal/raf"
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
	prep  metric.PreparedQuery
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
// are its own and stay — and returns the scratch to the pool. Resetting the
// frontier hands its record chunks back to their free list.
func (sc *queryScratch) release() {
	sc.prep = nil
	sc.pq.reset()
	sc.res.items = sc.res.items[:0]
	clear(sc.blk.cands[:cap(sc.blk.cands)])
	sc.blk.cands = sc.blk.cands[:0]
	clear(sc.res.items[:cap(sc.res.items)])
	clear(sc.blk.objs[:cap(sc.blk.objs)])
	scratchPool.Put(sc)
}

// kernel returns the query's prepared kernel on the unwrapped metric and the
// tree's codec, building it on first use (per-query work such as the Myers
// bitmaps is done once per query, not per block).
func (sc *queryScratch) kernel(t *Tree, q metric.Object) metric.PreparedQuery {
	if sc.prep == nil {
		sc.prep = metric.Prepare(t.dist.Unwrap(), t.codec, q)
	}
	return sc.prep
}

// pushBox pushes a node reference onto the frontier if its MBB's MIND is
// within bound (Lemma 3), counting the push or the prune.
func (t *Tree) pushBox(sc *queryScratch, ref bptree.NodeRef, bound float64, qs *QueryStats) {
	sfc.Unpack(ref.BoxLo, t.bits, sc.boxLo)
	sfc.Unpack(ref.BoxHi, t.bits, sc.boxHi)
	if mind := t.mindToBox(sc.qvec, sc.boxLo, sc.boxHi); mind <= bound {
		sc.pq.push(mindItem{mind: mind, ref: uint64(ref.Page), tag: tagNode})
		qs.HeapPushes++
	} else {
		qs.NodesPruned++
	}
}

// pushNode pushes what survives bound of the node just read: an internal
// node's children, or a leaf's entries as one sorted run (a budgeted search;
// an exact one verifies a leaf when it reaches it).
func (t *Tree) pushNode(sc *queryScratch, bound float64, qs *QueryStats) {
	for _, c := range sc.node.Children {
		t.pushBox(sc, c, bound, qs)
	}
	start := len(sc.pq.runs)
	for i, cell := range sc.node.Cells {
		if t.leafAdmits(sc, cell, bound) {
			sfc.Unpack(cell, t.bits, sc.cell)
			sc.pq.runs = append(sc.pq.runs, runEntry{mind: t.mindToCell(sc.qvec, sc.cell), ref: sc.node.Vals[i], pos: uint32(i)})
		}
	}
	admitted := len(sc.pq.runs) - start
	qs.EntriesScanned += int64(len(sc.node.Vals))
	qs.EntriesPruned += int64(len(sc.node.Vals) - admitted) // Lemma 3
	qs.HeapPushes += int64(admitted)
	sc.pq.pushRun(start)
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
// needs no write barriers and the frontier's backing arrays are invisible to
// the garbage collector. ref is a tree node's page, a leaf entry's RAF
// offset, or a buffered insert's object ID; tag's low tagKindBits say which
// (tagNode, tagEntry, tagDelta) and the rest carry the kind's payload: the
// end of an entry's run in the frontier's arena, or a buffered insert's index
// in the frontier's side slice. An entry's next is the arena index of its
// run's successor.
type mindItem struct {
	mind float64
	ref  uint64
	tag  uint32
	next uint32
}

const (
	tagNode uint32 = iota
	tagEntry
	tagDelta

	tagKindBits        = 2
	tagKind     uint32 = 1<<tagKindBits - 1
)

func (x mindItem) isNode() bool { return x.tag == tagNode }

// mindLess is a total order on frontier items: MIND first, then nodes before
// entries, then base entries before write-buffer entries, then page, offset
// or object ID. Totality matters twice — equal-MIND items pop in the same
// relative order in every execution, so however the pops are cut into
// blocks the candidate sequence is the same (and with it
// Verified/Compdists), and results never depend on the frontier's
// internals.
func mindLess(a, b mindItem) bool {
	if a.mind != b.mind {
		return a.mind < b.mind
	}
	if ka, kb := a.tag&tagKind, b.tag&tagKind; ka != kb {
		return ka < kb
	}
	return a.ref < b.ref
}

// runEntry is one admitted leaf entry in the frontier's arena: its MIND, its
// RAF offset, its position in its leaf, and where its record is in the
// query's record arena — zero until the entry's run is copied (recArena).
type runEntry struct {
	mind float64
	ref  uint64
	pos  uint32
	rec  uint32
}

// before orders a leaf's entries as mindLess orders them.
func (a runEntry) before(b runEntry) bool {
	return a.mind < b.mind || a.mind == b.mind && a.ref < b.ref
}

// sortRun sorts a leaf's entries under before: a quicksort on the median of
// three down to insertion-sorted slices of 12. A leaf's offsets are distinct,
// so any correct sort yields the same run; this one inlines the comparison,
// which slices.SortFunc calls through a function value.
func sortRun(run []runEntry) {
	for len(run) > 12 {
		m, last := len(run)/2, len(run)-1
		if run[m].before(run[0]) {
			run[0], run[m] = run[m], run[0]
		}
		if run[last].before(run[m]) {
			run[m], run[last] = run[last], run[m]
			if run[m].before(run[0]) {
				run[0], run[m] = run[m], run[0]
			}
		}
		pivot := run[m]
		i, j := 0, last
		for i <= j {
			for run[i].before(pivot) {
				i++
			}
			for pivot.before(run[j]) {
				j--
			}
			if i <= j {
				run[i], run[j] = run[j], run[i]
				i++
				j--
			}
		}
		// Recurse into the shorter side, loop on the longer.
		if j+1 < len(run)-i {
			sortRun(run[:j+1])
			run = run[i:]
		} else {
			sortRun(run[i:])
			run = run[:j+1]
		}
	}
	for i := 1; i < len(run); i++ {
		x, j := run[i], i
		for ; j > 0 && x.before(run[j-1]); j-- {
			run[j] = run[j-1]
		}
		run[j] = x
	}
}

// frontier is Algorithm 2's priority queue. Nodes and buffered inserts are
// single items of a binary min-heap under mindLess (no container/heap
// boxing); under a budget a leaf's admitted entries are appended to an
// arena, sorted, and
// stand in the heap as one item for the run's head, which a pop replaces
// with the run's next entry (semadb's append-then-sort DistSet, DESIGN.md
// §9.7). Every run is sorted under mindLess and the heap holds each run's
// minimum, so pops come out in exactly the order a heap of single entries
// gives them, while a leaf costs one sort and one heap item instead of a
// push per entry. The arena keeps every entry pushed since the last reset;
// run ends are packed beside the kind bits, so it holds at most 2^30 (16 GB).
type frontier struct {
	items []mindItem
	runs  []runEntry
	delta []metric.Object // buffered-insert objects the items' tags index
	recs  recArena        // the records of the runs' entries, once copied
}

// Len reports the number of heap items; it is zero exactly when the frontier
// is empty.
func (f *frontier) Len() int { return len(f.items) }

// reset empties the frontier, dropping its references to buffered inserts.
func (f *frontier) reset() {
	f.items, f.runs = f.items[:0], f.runs[:0]
	clear(f.delta[:cap(f.delta)])
	f.delta = f.delta[:0]
	f.recs.reset()
}

// push adds one item.
func (f *frontier) push(x mindItem) {
	f.items = append(f.items, x)
	f.up(len(f.items)-1, x)
}

// pushRun sorts the arena's entries from start on into one run and pushes
// its head; an empty run pushes nothing.
func (f *frontier) pushRun(start int) {
	run := f.runs[start:]
	if len(run) == 0 {
		return
	}
	if len(f.runs) >= 1<<(32-tagKindBits) {
		panic("core: frontier arena exceeds its 2^30 entries")
	}
	sortRun(run)
	end := uint32(len(f.runs))
	f.push(mindItem{mind: run[0].mind, ref: run[0].ref, tag: tagEntry | end<<tagKindBits, next: uint32(start) + 1})
}

// pushDelta pushes a buffered insert with its MIND bound.
func (f *frontier) pushDelta(bound float64, obj metric.Object) {
	f.push(mindItem{mind: bound, ref: obj.ID(), tag: tagDelta | uint32(len(f.delta))<<tagKindBits})
	f.delta = append(f.delta, obj)
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
	if top.tag&tagKind == tagEntry && top.next < top.tag>>tagKindBits {
		// The run's next entry replaces its head: it is no smaller, so it
		// sifts down from the root, usually not far.
		e := f.runs[top.next]
		x := mindItem{mind: e.mind, ref: e.ref, tag: top.tag, next: top.next + 1}
		i, n := 0, len(items)
		for c := 1; c < n; c = 2*i + 1 {
			if c+1 < n && mindLess(items[c+1], items[c]) {
				c++
			}
			if !mindLess(items[c], x) {
				break
			}
			items[i] = items[c]
			i = c
		}
		items[i] = x
		return top
	}
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

// admit appends the candidate of x, a leaf entry or buffered insert just
// popped, to the block. The first pop of an entry whose record is not yet
// copied copies its run's reachable records first (copyRun): the entry's and
// those of the run's later entries whose MIND is within bound, at most budget
// of them. The copy is RAF I/O, on the verification clock.
func (t *Tree) admit(sc *queryScratch, x mindItem, bound float64, budget int64, qs *QueryStats) {
	f, b := &sc.pq, &sc.blk
	if x.tag&tagKind == tagDelta {
		b.cands = append(b.cands, candidate{bound: x.mind, obj: f.delta[x.tag>>tagKindBits]})
		return
	}
	e := &f.runs[x.next-1]
	if e.rec == 0 {
		st := qs.stageStart()
		f.copyRun(t.raf, int(x.next-1), int(x.tag>>tagKindBits), bound, budget)
		qs.stageAdd(&qs.VerifyTime, st)
	}
	b.cands = append(b.cands, candidate{bound: x.mind, val: x.ref, rec: e.rec})
}

// copyRun copies the records of the run entries [from, end) that the search
// can still verify into the record arena, in leaf order, and marks each entry
// with where its record went. Those are the entry at from — just popped —
// and the ones after it whose MIND is within bound, up to budget entries: the
// run is sorted and a kNN bound only tightens, so no later entry of the run
// is ever verified (the search terminates at the first pop beyond its bound,
// and once its budget is spent; an entry it pops all the same is copied at
// that pop). Selecting by leaf position keeps the
// copy in the leaf's RAF order without sorting.
func (f *frontier) copyRun(file *raf.File, from, end int, bound float64, budget int64) {
	a := &f.recs
	sel := f.runs[from:end]
	n, last := 1, int(sel[0].pos)
	for n < len(sel) && int64(n) < budget && sel[n].mind <= bound {
		last = max(last, int(sel[n].pos))
		n++
	}
	sel = sel[:n]
	if cap(a.byPos) <= last {
		a.byPos = make([]int32, last+1)
	}
	byPos := a.byPos[:last+1]
	for i := range byPos {
		byPos[i] = -1
	}
	for k, e := range sel {
		byPos[e.pos] = int32(k)
	}
	offs, idx := a.offs[:0], a.idx[:0]
	for _, k := range byPos {
		if k >= 0 {
			offs = append(offs, sel[k].ref)
			idx = append(idx, k)
		}
	}
	a.offs, a.idx = offs, idx
	for len(offs) > 0 {
		copied, err := file.CopyRecords(offs, func(i, n int) []byte { return a.alloc(&sel[idx[i]], n) })
		if err == nil {
			return
		}
		// The failing record keeps its error for its commit turn, which a
		// search that stops first never reaches; the rest are copied on.
		sel[idx[copied]].rec = recFailed | uint32(len(a.errs))
		a.errs = append(a.errs, err)
		offs, idx = offs[copied+1:], idx[copied+1:]
	}
}

// recArena holds the records a budgeted search copied (DESIGN.md §9.4):
// raw, header and payload as the RAF stores them, in fixed-size chunks of
// bytes that the garbage collector never scans. An entry's runEntry.rec is
// its record's chunk and offset plus one, or recFailed with the index of the
// error its copy returned.
type recArena struct {
	chunks [][]byte // the last one is being filled
	errs   []error

	// Staging of one copy: its entries by leaf position, and their offsets
	// and run indices in leaf order.
	byPos []int32
	offs  []uint64
	idx   []int32
}

const (
	chunkBits = 15
	chunkSize = 1 << chunkBits
	recFailed = 1 << 31 // marks an entry whose record could not be copied
)

// reset empties the arena and hands its chunks back to the free list.
func (a *recArena) reset() {
	for i, c := range a.chunks {
		putChunk(c)
		a.chunks[i] = nil
	}
	a.chunks = a.chunks[:0]
	clear(a.errs)
	a.errs = a.errs[:0]
}

// alloc returns n bytes of the arena for e's record and points e.rec at
// them: in the last chunk if they fit, else in a fresh one — a record longer
// than a chunk gets one of its own, which is not recycled.
func (a *recArena) alloc(e *runEntry, n int) []byte {
	c := len(a.chunks) - 1
	if c < 0 || len(a.chunks[c])+n > cap(a.chunks[c]) {
		if c++; c >= 1<<(31-chunkBits)-1 { // rec must stay below recFailed
			panic("core: record arena exceeds 2 GB")
		}
		if n > chunkSize {
			a.chunks = append(a.chunks, make([]byte, 0, n))
		} else {
			a.chunks = append(a.chunks, getChunk())
		}
	}
	ch := a.chunks[c]
	at := len(ch)
	a.chunks[c] = ch[:at+n]
	e.rec = uint32(c<<chunkBits|at) + 1
	return ch[at : at+n]
}

// failure returns the error the copy of the entry whose runEntry.rec is rec
// failed with, or nil.
func (a *recArena) failure(rec uint32) error {
	if rec&recFailed != 0 {
		return a.errs[rec&^recFailed]
	}
	return nil
}

// record returns the copied raw record, header and payload, of the entry
// whose runEntry.rec is rec; its copy must not have failed.
func (a *recArena) record(rec uint32) []byte {
	pos := rec - 1
	return a.chunks[pos>>chunkBits][pos&(chunkSize-1):]
}

// Record chunks outlive the scratch that uses them: a scratch the pool drops
// at a garbage collection would otherwise regrow its arena — some 170 KB per
// 10-NN whose budget does not bind on Words, and 550 KB on Color32 at
// n = 100 000 — from nothing.
// The free list is bounded, and the collector does not empty it. A chunk a
// long record grew is not recycled.
const maxFreeChunks = 128 // 4 MB

var freeChunks struct {
	sync.Mutex
	list [][]byte
}

// getChunk returns an empty chunk, recycled when one is free.
func getChunk() []byte {
	freeChunks.Lock()
	defer freeChunks.Unlock()
	n := len(freeChunks.list)
	if n == 0 {
		return make([]byte, 0, chunkSize)
	}
	c := freeChunks.list[n-1]
	freeChunks.list = freeChunks.list[:n-1]
	return c[:0]
}

// putChunk returns c to the free list if it is a chunk and there is room.
func putChunk(c []byte) {
	if cap(c) != chunkSize {
		return
	}
	freeChunks.Lock()
	if len(freeChunks.list) < maxFreeChunks {
		freeChunks.list = append(freeChunks.list, c)
	}
	freeChunks.Unlock()
}
