package core

import (
	"context"
	"sort"

	"spbtree/internal/bptree"
	"spbtree/internal/metric"
	"spbtree/internal/sfc"
)

// RangeQuery answers RQ(q, O, r) = {o ∈ O | d(q, o) ≤ r} with the paper's
// Algorithm 1 (RQA): nodes whose MBBs miss the mapped range region RR(q, r)
// are pruned (Lemma 1); leaves fully inside RR skip the per-entry region
// test, and the entries of the other leaves are tested against RR on their
// stored cells — with cells in the leaves this is Algorithm 1's computeSFC
// merge of MBB ∩ RR, whose cells are exactly those of RR in the leaf; and
// Lemma 2 proves some answers without computing their distances.
//
// On a storage or corruption error the verified answers found so far are
// returned (sorted) alongside the non-nil error — objects are never
// silently dropped, and the error tells the caller the set is incomplete.
//
// RangeQuery is Query with Op OpRange under context.Background(); use Query
// for the query's QueryStats or a deadline.
func (t *Tree) RangeQuery(q metric.Object, r float64) ([]Result, error) {
	return answers(t.Query(context.Background(), Query{Op: OpRange, Q: q, Radius: r}))
}

// rangeQuery is Algorithm 1, accumulating per-stage counts into qs. ctx is
// checked at every node visit and every verification; on cancellation the
// answers verified so far are returned with a typed ErrCanceled.
//
// The traversal prunes; surviving entries are verified by a rangeSerial
// (exec.go).
func (t *Tree) rangeQuery(ctx context.Context, q metric.Object, r float64, qs *QueryStats) ([]Result, error) {
	if r < 0 {
		return nil, nil
	}
	sc := t.getScratch()
	defer sc.release()
	st := qs.stageStart()
	t.phi(q, sc.qvec)
	qs.Compdists += int64(len(sc.qvec))
	sc.rrWin = t.rangeWindow(sc.qvec, r)
	qs.stageAdd(&qs.PlanTime, st)
	if sc.rrWin.empty() {
		// An empty region excludes buffered inserts identically (their cells
		// are region-tested like any entry), so the delta needs no pass.
		return nil, nil
	}
	sink := &rangeSerial{t: t, q: q, r: r, qs: qs, sc: sc}
	var err error
	if root, ok := t.bpt.Root(); ok {
		// A block the traversal left pending is verified even when the walk
		// failed: its entries were scanned before the failure.
		travErr := t.rangeTraverse(ctx, root, sc, sink, qs)
		if err = sink.flush(); err == nil {
			err = travErr
		}
	}
	// Merge the durable write buffer: buffered inserts run the same
	// region-test / Lemma 2 / verify pipeline, so the combined answer — and
	// its compdists — is identical to a tree rebuilt over the live set
	// (tombstoned base objects were already skipped at verification).
	if err == nil && t.deltaActive() {
		err = t.rangeDelta(ctx, sink)
	}
	sortByID(sink.results)
	return sink.results, err
}

// rangeDelta runs Algorithm 1's candidate pipeline over the buffered
// inserts, in ascending ID order: per-entry Lemma 1 region test on the
// quantized cell, Lemma 2 computation-free inclusion, exact verification
// for the rest. Exactly what the entries would cost had they been in the
// base tree — only the traversal-side diagnostic, node reads, differs.
func (t *Tree) rangeDelta(ctx context.Context, s *rangeSerial) error {
	sc, qs := s.sc, s.qs
	for _, e := range t.deltaEntriesSorted() {
		if err := ctxDone(ctx); err != nil {
			return err
		}
		qs.EntriesScanned++
		if !sc.rrWin.admits(e.cell) {
			qs.EntriesPruned++
			continue // Lemma 1
		}
		sfc.Unpack(e.cell, t.bits, sc.cell)
		qs.DeltaCandidates++
		if ub, ok := t.lemma2Bound(sc.qvec, sc.cell, s.r); ok {
			qs.Lemma2Included++
			s.results = append(s.results, Result{Object: e.obj, Dist: ub, Exact: false})
			continue
		}
		st := qs.stageStart()
		d, within := t.verifyDist(s.q, e.obj, s.r)
		s.verified(e.obj, d, within)
		qs.stageAdd(&qs.VerifyTime, st)
	}
	return nil
}

// rangeTraverse walks the B+-tree, pruning with Lemma 1 on the stored box
// corners and cells, and hands surviving leaf entries to the sink. A corrupt
// page or cancellation stops the walk; the answers verified so far survive
// in the sink.
func (t *Tree) rangeTraverse(ctx context.Context, root bptree.NodeRef, sc *queryScratch, sink *rangeSerial, qs *QueryStats) error {
	rr := sc.rrWin
	node := &sc.node
	stack := append(sc.stack[:0], root)
	defer func() { sc.stack = stack }()
	for len(stack) > 0 {
		if err := ctxDone(ctx); err != nil {
			return err
		}
		ref := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !rr.meets(ref.BoxLo, ref.BoxHi) {
			qs.NodesPruned++
			continue // Lemma 1
		}
		if err := t.bpt.ReadNode(ref.Page, node); err != nil {
			return err
		}
		qs.NodesRead++
		if !node.Leaf {
			for _, c := range node.Children {
				if rr.meets(c.BoxLo, c.BoxHi) {
					stack = append(stack, c)
				} else {
					qs.NodesPruned++
				}
			}
			continue
		}
		// Leaf handling, Algorithm 1 lines 11-23: MBB(N) ⊆ RR — both corners
		// admitted — implies every entry's region test; otherwise each entry
		// is tested on its cell word.
		contained := rr.admits(ref.BoxLo) && rr.admits(ref.BoxHi)
		for i, c := range node.Cells {
			if err := t.scanRQ(ctx, sink, node.Vals[i], c, !contained, qs); err != nil {
				return err
			}
		}
	}
	return nil
}

// sortByID orders results by object id for deterministic output.
func sortByID(results []Result) {
	sort.Slice(results, func(i, j int) bool { return results[i].Object.ID() < results[j].Object.ID() })
}

// scanRQ is the traversal side of VerifyRQ (Algorithm 1) for the entry val
// with cell word cell: cancellation check, scan count, and the optional
// Lemma 1 region re-check on the word; the surviving candidate's cell is
// unpacked and goes to the sink, which verifies it. The ctx check here gives
// verification-batch granularity: a canceled query stops before the next RAF
// page read and distance computation.
func (t *Tree) scanRQ(ctx context.Context, sink *rangeSerial, val, cell uint64, checkRegion bool, qs *QueryStats) error {
	if err := ctxDone(ctx); err != nil {
		return err
	}
	qs.EntriesScanned++
	if checkRegion && !sink.sc.rrWin.admits(cell) {
		qs.EntriesPruned++
		return nil // Lemma 1
	}
	sfc.Unpack(cell, t.bits, sink.sc.cell)
	return sink.add(val, sink.sc.cell)
}
