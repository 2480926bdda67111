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
// test; sparse intersections are resolved by enumerating the region's SFC
// values instead of decoding every entry; and Lemma 2 proves some answers
// without computing their distances.
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
	qvec, rrLo, rrHi := sc.qvec, sc.rrLo, sc.rrHi
	t.phi(q, qvec)
	qs.Compdists += int64(len(qvec))
	t.rangeRegion(qvec, r, rrLo, rrHi)
	qs.stageAdd(&qs.PlanTime, st)
	if sfc.BoxVolume(rrLo, rrHi) == 0 {
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
// base tree — only the traversal-side diagnostics (node reads, merge skips)
// differ.
func (t *Tree) rangeDelta(ctx context.Context, s *rangeSerial) error {
	sc, qs := s.sc, s.qs
	for _, e := range t.deltaEntriesSorted() {
		if err := ctxDone(ctx); err != nil {
			return err
		}
		qs.EntriesScanned++
		t.curve.Decode(e.key, sc.cell)
		if !sfc.Contains(sc.rrLo, sc.rrHi, sc.cell) {
			qs.EntriesPruned++
			continue // Lemma 1
		}
		qs.DeltaCandidates++
		if !t.noLemma2 {
			if ub, ok := t.lemma2Bound(sc.qvec, sc.cell, s.r); ok {
				qs.Lemma2Included++
				s.results = append(s.results, Result{Object: e.obj, Dist: ub, Exact: false})
				continue
			}
		}
		st := qs.stageStart()
		d, within := t.verifyDist(s.q, e.obj, s.r)
		s.verified(e.obj, d, within)
		qs.stageAdd(&qs.VerifyTime, st)
	}
	return nil
}

// rangeTraverse walks the B+-tree, pruning with Lemma 1 and the SFC merge
// strategies, and hands surviving leaf entries to the sink. A corrupt page
// or cancellation stops the walk; the answers verified so far survive in the
// sink.
func (t *Tree) rangeTraverse(ctx context.Context, root bptree.NodeRef, sc *queryScratch, sink *rangeSerial, qs *QueryStats) error {
	rrLo, rrHi, boxLo, boxHi, cell, iLo, iHi := sc.rrLo, sc.rrHi, sc.boxLo, sc.boxHi, sc.cell, sc.iLo, sc.iHi
	node := &sc.node
	stack := append(sc.stack[:0], root)
	defer func() { sc.stack = stack }()
	for len(stack) > 0 {
		if err := ctxDone(ctx); err != nil {
			return err
		}
		ref := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		t.curve.Decode(ref.BoxLo, boxLo)
		t.curve.Decode(ref.BoxHi, boxHi)
		if !sfc.Intersects(rrLo, rrHi, boxLo, boxHi) {
			qs.NodesPruned++
			continue // Lemma 1
		}
		if err := t.bpt.ReadNode(ref.Page, node); err != nil {
			return err
		}
		qs.NodesRead++
		if !node.Leaf {
			for _, c := range node.Children {
				t.curve.Decode(c.BoxLo, boxLo)
				t.curve.Decode(c.BoxHi, boxHi)
				if sfc.Intersects(rrLo, rrHi, boxLo, boxHi) {
					stack = append(stack, c)
				} else {
					qs.NodesPruned++
				}
			}
			continue
		}

		// Leaf handling, Algorithm 1 lines 11-23. boxLo/boxHi still hold
		// this leaf's MBB — the non-leaf path above continues the loop.
		contained := sfc.Contains(rrLo, rrHi, boxLo) && sfc.Contains(rrLo, rrHi, boxHi)
		switch {
		case contained:
			// MBB(N) ⊆ RR: every entry's region test is implied.
			for i := range node.Keys {
				if err := t.scanRQ(ctx, sink, node.Keys[i], node.Vals[i], false, cell, rrLo, rrHi, qs); err != nil {
					return err
				}
			}
		default:
			merged := false
			if !t.noSFCMerge && sfc.IntersectBox(rrLo, rrHi, boxLo, boxHi, iLo, iHi) {
				if t.kind == sfc.ZOrder {
					// Z-order leaves support BIGMIN skip scans (Tropf &
					// Herzog): jump directly to the next entry key inside
					// the region instead of enumerating cells — the
					// UB/ZB-tree technique the paper cites as related work.
					merged = true
					ei := 0
					for ei < len(node.Keys) {
						z, ok := sfc.NextInBox(t.curve, iLo, iHi, node.Keys[ei])
						if !ok {
							qs.EntriesSkipped += int64(len(node.Keys) - ei)
							break
						}
						if node.Keys[ei] < z {
							jump := sort.Search(len(node.Keys)-ei, func(j int) bool { return node.Keys[ei+j] >= z })
							qs.EntriesSkipped += int64(jump)
							ei += jump
							continue
						}
						if err := t.scanRQ(ctx, sink, node.Keys[ei], node.Vals[ei], false, cell, rrLo, rrHi, qs); err != nil {
							return err
						}
						ei++
					}
				} else if vol := sfc.BoxVolume(iLo, iHi); vol < uint64(len(node.Keys)) {
					// Hilbert: fewer cells than entries, so enumerate the
					// region's SFC values and merge with the sorted leaf
					// entries — no entry outside the region is ever decoded
					// (Algorithm 1, lines 14-20).
					keys := sfc.KeysInBox(t.curve, iLo, iHi, len(node.Keys))
					if keys != nil {
						merged = true
						ki, ei := 0, 0
						for ki < len(keys) && ei < len(node.Keys) {
							switch {
							case node.Keys[ei] == keys[ki]:
								if err := t.scanRQ(ctx, sink, node.Keys[ei], node.Vals[ei], false, cell, rrLo, rrHi, qs); err != nil {
									return err
								}
								ei++
							case node.Keys[ei] > keys[ki]:
								ki++
							default:
								qs.EntriesSkipped++
								ei++
							}
						}
						qs.EntriesSkipped += int64(len(node.Keys) - ei)
					}
				}
			}
			if !merged {
				for i := range node.Keys {
					if err := t.scanRQ(ctx, sink, node.Keys[i], node.Vals[i], true, cell, rrLo, rrHi, qs); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// sortByID orders results by object id for deterministic output.
func sortByID(results []Result) {
	sort.Slice(results, func(i, j int) bool { return results[i].Object.ID() < results[j].Object.ID() })
}

// scanRQ is the traversal side of VerifyRQ (Algorithm 1): cancellation
// check, scan count, and the optional Lemma 1 region re-check; the surviving
// candidate goes to the sink, which verifies it. The ctx check here gives
// verification-batch granularity: a canceled query stops before the next RAF
// page read and distance computation.
func (t *Tree) scanRQ(ctx context.Context, sink *rangeSerial, key, val uint64, checkRegion bool, cell, rrLo, rrHi sfc.Point, qs *QueryStats) error {
	if err := ctxDone(ctx); err != nil {
		return err
	}
	qs.EntriesScanned++
	t.curve.Decode(key, cell)
	if checkRegion && !sfc.Contains(rrLo, rrHi, cell) {
		qs.EntriesPruned++
		return nil // Lemma 1
	}
	return sink.add(val, cell)
}
