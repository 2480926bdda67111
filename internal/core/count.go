package core

import (
	"sort"

	"spbtree/internal/metric"
	"spbtree/internal/sfc"
)

// RangeCount returns |RQ(q, O, r)| without materializing the objects.
// Counting is strictly cheaper than RangeQuery: answers proved by Lemma 2
// are counted without reading them from the RAF at all — for a count, the
// object bytes themselves are never needed — so both compdists *and* page
// accesses drop. Aggregation pushdown, the way a DBMS integration would run
// COUNT(*) ... WHERE d(q, o) <= r.
//
// On a durable tree with a live write buffer the read-free Lemma-2 shortcut
// is suspended for base entries: whether a record is superseded (tombstoned
// or re-inserted) is known only from its object ID, which lives in the RAF —
// the count is exact either way, but those entries cost a page read.
func (t *Tree) RangeCount(q metric.Object, r float64) (int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return 0, ErrClosed
	}
	if r < 0 {
		return 0, nil
	}
	sc := t.getScratch()
	defer sc.release()
	qvec, rrLo, rrHi, boxLo, boxHi, cell, node := sc.qvec, sc.rrLo, sc.rrHi, sc.boxLo, sc.boxHi, sc.cell, &sc.node
	t.phi(q, qvec)
	t.rangeRegion(qvec, r, rrLo, rrHi)
	if sfc.BoxVolume(rrLo, rrHi) == 0 {
		return 0, nil
	}
	deltaLive := t.deltaActive()

	count := 0
	if root, ok := t.bpt.Root(); ok {
		stack := append(sc.stack[:0], root)
		for len(stack) > 0 {
			ref := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			t.curve.Decode(ref.BoxLo, boxLo)
			t.curve.Decode(ref.BoxHi, boxHi)
			if !sfc.Intersects(rrLo, rrHi, boxLo, boxHi) {
				continue
			}
			if err := t.bpt.ReadNode(ref.Page, node); err != nil {
				return 0, err
			}
			if !node.Leaf {
				stack = append(stack, node.Children...)
				continue
			}
			for i := range node.Keys {
				t.curve.Decode(node.Keys[i], cell)
				if !sfc.Contains(rrLo, rrHi, cell) {
					continue // Lemma 1
				}
				var obj metric.Object
				if deltaLive {
					// The shadow check needs the ID, so the read is mandatory.
					var err error
					obj, err = t.raf.Read(node.Vals[i])
					if err != nil {
						return 0, err
					}
					if t.deltaShadowed(obj.ID()) {
						continue
					}
				}
				if !t.noLemma2 {
					if _, ok := t.lemma2Bound(qvec, cell, r); ok {
						count++ // Lemma 2: no distance computation needed
						continue
					}
				}
				if obj == nil {
					var err error
					obj, err = t.raf.Read(node.Vals[i])
					if err != nil {
						return 0, err
					}
				}
				if _, within := t.verifyDist(q, obj, r); within {
					count++
				}
			}
		}
	}
	// Buffered inserts run the same per-entry pipeline.
	if deltaLive {
		for _, e := range t.deltaEntriesSorted() {
			t.curve.Decode(e.key, cell)
			if !sfc.Contains(rrLo, rrHi, cell) {
				continue // Lemma 1
			}
			if !t.noLemma2 {
				if _, ok := t.lemma2Bound(qvec, cell, r); ok {
					count++
					continue
				}
			}
			if _, within := t.verifyDist(q, e.obj, r); within {
				count++
			}
		}
	}
	return count, nil
}

// RangeIDs returns the identifiers of RQ(q, O, r), sorted — between
// RangeCount and RangeQuery in cost: Lemma-2 answers still require one RAF
// read for their id, but no distance computation.
func (t *Tree) RangeIDs(q metric.Object, r float64) ([]uint64, error) {
	res, err := t.RangeQuery(q, r)
	if err != nil {
		return nil, err
	}
	ids := make([]uint64, len(res))
	for i, x := range res {
		ids[i] = x.Object.ID()
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}
