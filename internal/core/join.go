package core

import (
	"bytes"
	"context"
	"fmt"
	"sort"

	"spbtree/internal/bptree"
	"spbtree/internal/metric"
	"spbtree/internal/sfc"
)

// JoinPair is one similarity-join answer ⟨q, o⟩ with d(q, o) ≤ ε.
type JoinPair struct {
	Q, O metric.Object
	Dist float64
}

// IDPair is the remote-safe form of a join answer: the two object IDs and
// their distance, with no object payloads attached. Cluster nodes return
// join results in this form (shipping every matched object back through the
// gather would multiply the wire traffic for no consumer — the serving layer
// only renders IDs and distances), and it is what a scatter-gather join
// ultimately sorts and deduplicates by.
type IDPair struct {
	// QID and OID identify the joined objects.
	QID, OID uint64
	// Dist is d(q, o) ≤ ε.
	Dist float64
}

// IDPairs projects join answers onto their remote-safe form, preserving
// order.
func IDPairs(pairs []JoinPair) []IDPair {
	out := make([]IDPair, len(pairs))
	for i, p := range pairs {
		out[i] = IDPair{QID: p.Q.ID(), OID: p.O.ID(), Dist: p.Dist}
	}
	return out
}

// SortIDPairs orders pairs by (QID, OID), the canonical order of a gathered
// join: forest.Join, the cluster router and /v1/join return their pairs in
// it, so a merged answer is byte-identical however its shard pairs were
// split. Join on two trees does not sort (it returns merge order).
func SortIDPairs(pairs []IDPair) {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].QID != pairs[j].QID {
			return pairs[i].QID < pairs[j].QID
		}
		return pairs[i].OID < pairs[j].OID
	})
}

// Join computes SJ(Q, O, ε) with the paper's Algorithm 3 (SJA): a single
// merge pass over the leaf levels of two SPB-trees in ascending SFC order,
// keeping lists of visited-but-still-matchable objects on each side. The
// Z-order curve's coordinatewise monotonicity gives Lemma 6's
// [minRR, maxRR] key window, which both skips verifications and evicts list
// entries that can never match again.
//
// Both trees must have been built over the same mapped space: tq built
// normally with Curve: sfc.ZOrder, and to built with ShareMapping: tq (or
// vice versa). Self-joins (tq == to) are allowed. Any other pair of trees is
// refused with an error matching ErrInvalidQuery. A negative eps matches
// nothing.
//
// The pairs come back unordered: in merge order, followed by the pairs of
// the trees' write buffers (joinDelta). Callers that need the canonical
// (QID, OID) order sort, as every gathering layer does.
//
// The stats are always filled: the work counters, the page accesses of both
// trees' stores (once for a self-join), Results and Elapsed. A join carries
// no stage clocks. The aggregate metrics are recorded on tq.
//
// ctx is checked at every merge step and before every distance computation.
// On cancellation, and on a storage or corruption error, the pairs verified
// so far are returned with the error (matching ErrCanceled in the first
// case), and the stats cover the work done.
func Join(ctx context.Context, tq, to *Tree, eps float64) ([]JoinPair, QueryStats, error) {
	qs := QueryStats{Op: OpJoin}
	unlock := rlockPair(tq, to)
	defer unlock()
	if tq.closed || to.closed {
		return nil, qs, ErrClosed
	}
	qt := tq.beginQuery(&qs)
	if to != tq {
		qt.to, qt.toBefore = to, to.takeIOSnapshot()
	}
	pairs, err := joinImpl(ctx, tq, to, eps, &qs)
	qt.finish(len(pairs), err)
	return pairs, qs, err
}

// joinImpl is Algorithm 3, accumulating per-stage counts into qs. Leaf-chain
// cursor reads are not reflected in NodesRead (the cursors decode nodes
// internally); the physical side of that traversal still shows up in IndexPA.
func joinImpl(ctx context.Context, tq, to *Tree, eps float64, qs *QueryStats) ([]JoinPair, error) {
	if err := joinCompatible(tq, to); err != nil {
		return nil, err
	}
	if eps < 0 {
		return nil, nil
	}
	sink := &joinSerial{ctx: ctx, t: tq, eps: eps, qs: qs}
	err := joinMerge(ctx, tq, to, eps, qs, sink)
	pairs := sink.pairs
	if err == nil && (tq.deltaActive() || to.deltaActive()) {
		pairs, err = joinDelta(ctx, tq, to, eps, qs, pairs)
	}
	return pairs, err
}

// joinDelta appends every join pair involving a buffered insert on either
// side. The base merge above covered base-live × base-live (superseded
// records were skipped at load); what remains decomposes without overlap as
//
//	rule 1:  tq.delta × live(to)            (live = base-live ∪ delta)
//	rule 2:  base-live(tq) × to.delta
//
// each computed by running the buffered object as an internal range query
// against the opposite tree — legal here because Join already holds both
// trees' read locks — with rule 2 dropping hits that are themselves buffered
// q-side inserts (already paired by rule 1). This covers self-joins too: both
// orientations of a (buffered, base) pair appear, as in a full merge.
//
// Lemma-2 hits carry an upper bound, not a distance; join pairs always report
// exact distances, so those are recomputed. The pairs are appended in
// (buffered ID, hit ID) order after the merge pairs — the join's counters for
// the delta portion reflect the internal range pipelines, not a merge.
func joinDelta(ctx context.Context, tq, to *Tree, eps float64, qs *QueryStats, pairs []JoinPair) ([]JoinPair, error) {
	exact := func(t *Tree, a, b metric.Object, r Result) float64 {
		if r.Exact {
			return r.Dist
		}
		qs.Compdists++
		return t.dist.Distance(a, b)
	}
	for _, dq := range tq.deltaEntriesSorted() {
		res, err := to.rangeQuery(ctx, dq.obj, eps, qs)
		if err != nil {
			return pairs, err
		}
		for _, r := range res {
			pairs = append(pairs, JoinPair{Q: dq.obj, O: r.Object, Dist: exact(to, dq.obj, r.Object, r)})
		}
	}
	for _, do := range to.deltaEntriesSorted() {
		res, err := tq.rangeQuery(ctx, do.obj, eps, qs)
		if err != nil {
			return pairs, err
		}
		for _, r := range res {
			if tq.wbuf != nil {
				if _, buffered := tq.wbuf.entries[r.Object.ID()]; buffered {
					continue // rule 1 already emitted ⟨buffered, do⟩
				}
			}
			pairs = append(pairs, JoinPair{Q: r.Object, O: do.obj, Dist: exact(tq, r.Object, do.obj, r)})
		}
	}
	return pairs, nil
}

// joinMerge is the merge pass of Algorithm 3, feeding candidate pairs to the
// sink.
func joinMerge(ctx context.Context, tq, to *Tree, eps float64, qs *QueryStats, sink *joinSerial) error {
	var listQ, listO []joinElem

	// The merge orders by key, which each cursor encodes from its cell once
	// per entry.
	cq := tq.bpt.SeekFirst()
	co := to.bpt.SeekFirst()
	keyOf := func(c *bptree.Cursor) uint64 {
		if c.Valid() {
			return c.Key()
		}
		return 0
	}
	kq, ko := keyOf(cq), keyOf(co)
	for cq.Valid() || co.Valid() {
		if err := ctxDone(ctx); err != nil {
			return err
		}
		if err := cq.Err(); err != nil {
			return err
		}
		if err := co.Err(); err != nil {
			return err
		}
		takeQ := false
		switch {
		case !co.Valid():
			takeQ = true
		case !cq.Valid():
			takeQ = false
		default:
			takeQ = kq <= ko
		}
		if takeQ {
			elem, err := tq.loadJoinElem(kq, cq.Cell(), cq.Val(), eps, qs)
			if err != nil {
				return err
			}
			if tq.deltaShadowed(elem.obj.ID()) {
				// Superseded by tq's write buffer: dead on this side, and its
				// live replacement (if any) is paired by joinDelta.
				qs.TombstonesSkipped++
				cq.Next()
				kq = keyOf(cq)
				continue
			}
			if err := sink.verifyJoin(elem, &listO, false); err != nil {
				return err
			}
			listQ = append(listQ, elem)
			cq.Next()
			kq = keyOf(cq)
		} else {
			elem, err := to.loadJoinElem(ko, co.Cell(), co.Val(), eps, qs)
			if err != nil {
				return err
			}
			if to.deltaShadowed(elem.obj.ID()) {
				qs.TombstonesSkipped++
				co.Next()
				ko = keyOf(co)
				continue
			}
			if err := sink.verifyJoin(elem, &listQ, true); err != nil {
				return err
			}
			listO = append(listO, elem)
			co.Next()
			ko = keyOf(co)
		}
	}
	if err := cq.Err(); err != nil {
		return err
	}
	return co.Err()
}

// joinCompatible ensures the two trees share a Z-order mapped space. Its
// refusals match ErrInvalidQuery: the request, not the index, is at fault.
func joinCompatible(tq, to *Tree) error {
	if tq.kind != sfc.ZOrder || to.kind != sfc.ZOrder {
		return fmt.Errorf("%w: similarity joins require Z-order SPB-trees (Lemma 6); got %v and %v", ErrInvalidQuery, tq.kind, to.kind)
	}
	if len(tq.pivots) != len(to.pivots) || tq.bits != to.bits || tq.delta != to.delta {
		return fmt.Errorf("%w: join trees have incompatible mappings; build one with ShareMapping", ErrInvalidQuery)
	}
	for i := range tq.pivots {
		a, b := tq.pivots[i], to.pivots[i]
		if a == b {
			continue // shared mapping: same object
		}
		// Trees loaded independently (e.g. two cluster shards reopened from
		// disk) carry distinct pivot objects with identical content; compare
		// by identity and encoding, not interface equality.
		if a.ID() != b.ID() || !bytes.Equal(a.AppendBinary(nil), b.AppendBinary(nil)) {
			return fmt.Errorf("%w: join trees use different pivot tables; build one with ShareMapping", ErrInvalidQuery)
		}
	}
	return nil
}

// joinElem is a visited object kept in a merge list: its SFC key, its
// packed cell, the object itself, its Lemma 6 window [minRR, maxRR], and its
// cell-space range region for the Lemma 5 test.
type joinElem struct {
	key, cell    uint64
	obj          metric.Object
	minRR, maxRR uint64
	rr           cellWindow
}

// loadJoinElem reads the object behind the leaf entry (cell, val), whose key
// is key, and precomputes its join geometry. The pivot distances come from
// the quantized cells already stored in the index — no distance
// computations — so the range region is widened by one cell of slack,
// keeping Lemma 5 conservative and therefore exact.
func (t *Tree) loadJoinElem(key, cell, val uint64, eps float64, qs *QueryStats) (joinElem, error) {
	qs.EntriesScanned++
	obj, err := t.raf.Read(val)
	if err != nil {
		return joinElem{}, err
	}
	e := joinElem{key: key, cell: cell, obj: obj, rr: t.joinWindow(cell, eps)}
	e.minRR = t.curve.EncodeCell(e.rr.lo)
	e.maxRR = t.curve.EncodeCell(e.rr.hi)
	return e, nil
}

// joinWindow returns the Lemma 5 region of the object in cell cell at eps:
// dimension i spans every cell whose distance interval meets
// [cellLower(c_i) − eps, cellUpper(c_i) + eps], where c_i is the cell's
// coordinate i and the interval around it every pivot distance it stands for.
func (t *Tree) joinWindow(cell uint64, eps float64) cellWindow {
	w := t.window()
	mask := uint64(1)<<t.bits - 1
	for i := range t.pivots {
		c := uint32(cell >> (i * t.bits) & mask)
		lo, hi, ok := t.cellSpan(t.cellLower(c)-eps, t.cellUpper(c)+eps)
		if !ok {
			return t.emptyWindow()
		}
		w.set(i, lo, hi)
	}
	return w
}

// verifyJoin is the Verify function of Algorithm 3: walk the opposite list
// from newest to oldest, evicting entries whose maxRR has fallen behind the
// current key (Lemma 6 — they can never match any later element either),
// skipping entries outside the key window, testing cell containment
// (Lemma 5), and only then handing the pair to the sink for the metric
// distance. flip marks cur as coming from the O side, so emitted pairs keep
// the ⟨q, o⟩ orientation. The sink's per-pair ctx check bounds work between
// cancellation points so even one element's long candidate list cannot
// overrun a deadline; pairs emitted before the cancellation stand.
func (sink *joinSerial) verifyJoin(cur joinElem, list *[]joinElem, flip bool) error {
	qs := sink.qs
	l := *list
	defer func() { *list = l }()
	for i := len(l) - 1; i >= 0; i-- {
		o := l[i]
		if o.maxRR < cur.key {
			// No current or future element can match o: evict.
			qs.ListEvictions++
			copy(l[i:], l[i+1:])
			l = l[:len(l)-1]
			continue
		}
		if o.key < cur.minRR {
			qs.EntriesSkipped++ // Lemma 6 key window
			continue
		}
		if !cur.rr.admits(o.cell) {
			qs.EntriesPruned++ // Lemma 5
			continue
		}
		if err := sink.pair(cur, o, flip); err != nil {
			return err
		}
	}
	return nil
}

// joinSerial computes the distances of the candidate pairs that survived
// Algorithm 3's geometric pruning (Lemmas 5/6) and collects the answers.
type joinSerial struct {
	ctx   context.Context
	t     *Tree
	eps   float64
	qs    *QueryStats
	pairs []JoinPair
}

// pair verifies ⟨cur, other⟩; flip reports that cur came from the O side, so
// the emitted pair is ⟨other, cur⟩.
func (s *joinSerial) pair(cur, other joinElem, flip bool) error {
	if err := ctxDone(s.ctx); err != nil {
		return err
	}
	qs := s.qs
	d, within := s.t.verifyDist(cur.obj, other.obj, s.eps)
	qs.Verified++
	qs.Compdists++
	if within {
		if flip {
			s.pairs = append(s.pairs, JoinPair{Q: other.obj, O: cur.obj, Dist: d})
		} else {
			s.pairs = append(s.pairs, JoinPair{Q: cur.obj, O: other.obj, Dist: d})
		}
	} else {
		qs.Discarded++
		if s.t.bounded {
			qs.Abandoned++
		}
	}
	return nil
}
