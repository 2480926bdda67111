package mtree

import (
	"fmt"

	"spbtree/internal/metric"
	"spbtree/internal/page"
)

// Insert adds one object with the classic M-tree insertion: descend into the
// subtree whose covering ball already contains the object (or needs the
// least enlargement), split overflowing nodes with random/farthest promotion
// and generalized-hyperplane partitioning. A PM-tree also expands the
// hyper-rings along the path and stores the object's pivot distances at the
// leaf.
func (t *Tree) Insert(o metric.Object) error {
	if !t.hasRoot {
		if len(t.pivots) == 0 {
			if err := t.selectPivots([]metric.Object{o}); err != nil {
				return err
			}
		}
		n, err := t.allocNode(true)
		if err != nil {
			return err
		}
		n.entries = []entry{{obj: o, objLen: len(o.AppendBinary(nil)), isLeaf: true, pd: t.pivotDists(o)}}
		if err := t.writeNode(n); err != nil {
			return err
		}
		t.rootPage = n.page
		t.hasRoot = true
		t.count = 1
		return nil
	}
	split, err := t.insertAt(t.rootPage, o, t.pivotDists(o), nil)
	if err != nil {
		return err
	}
	if split != nil {
		root, err := t.allocNode(false)
		if err != nil {
			return err
		}
		root.entries = split
		if err := t.writeNode(root); err != nil {
			return err
		}
		t.rootPage = root.page
	}
	t.count++
	return nil
}

// insertAt inserts o, whose pivot distances are pd, into the subtree rooted
// at pg, whose routing object in the parent is parent (nil at the root). A non-nil return carries the two
// routing entries that replace this subtree after a split; their dParent is
// unset (the caller knows its own routing object).
func (t *Tree) insertAt(pg page.ID, o metric.Object, pd []float64, parent metric.Object) ([]entry, error) {
	n, err := t.readNode(pg)
	if err != nil {
		return nil, err
	}
	if n.leaf {
		var dp float64
		if parent != nil {
			dp = t.dist.Distance(o, parent)
		}
		n.entries = append(n.entries, entry{obj: o, objLen: len(o.AppendBinary(nil)), dParent: dp, isLeaf: true, pd: pd})
		if t.nodeBytes(n.entries) <= page.Size {
			return nil, t.writeNode(n)
		}
		return t.split(n)
	}

	// Choose the subtree: prefer a covering ball (min distance); otherwise
	// minimal radius enlargement.
	bestIdx, bestD := -1, 0.0
	enlargeIdx, enlargeBy, enlargeD := -1, 0.0, 0.0
	for i := range n.entries {
		e := &n.entries[i]
		d := t.dist.Distance(o, e.obj)
		if d <= e.radius {
			if bestIdx < 0 || d < bestD {
				bestIdx, bestD = i, d
			}
			continue
		}
		if enlargeIdx < 0 || d-e.radius < enlargeBy {
			enlargeIdx, enlargeBy, enlargeD = i, d-e.radius, d
		}
	}
	if bestIdx < 0 {
		bestIdx = enlargeIdx
		n.entries[bestIdx].radius = enlargeD
	}
	chosen := &n.entries[bestIdx]
	expandPD(chosen.hr, pd)
	split, err := t.insertAt(chosen.child, o, pd, chosen.obj)
	if err != nil {
		return nil, err
	}
	if split != nil {
		// Replace the split child's entry with the two promoted entries.
		for i := range split {
			if parent != nil {
				split[i].dParent = t.dist.Distance(split[i].obj, parent)
			}
		}
		n.entries[bestIdx] = split[0]
		n.entries = append(n.entries, split[1])
	}
	if t.nodeBytes(n.entries) <= page.Size {
		return nil, t.writeNode(n)
	}
	return t.split(n)
}

// split partitions an overflowing node by random/farthest promotion and
// returns the two routing entries, with their recomputed hyper-rings, for
// the caller to adopt. The original page is reused for the first partition.
func (t *Tree) split(n *node) ([]entry, error) {
	entries := n.entries
	if len(entries) < 2 {
		return nil, fmt.Errorf("mtree: cannot split node %d with %d entries (object exceeds page size?)", n.page, len(entries))
	}
	p1 := t.rng.Intn(len(entries))
	d1s := make([]float64, len(entries))
	p2, far := -1, -1.0
	for i := range entries {
		d1s[i] = t.dist.Distance(entries[i].obj, entries[p1].obj)
		if i != p1 && d1s[i] > far {
			p2, far = i, d1s[i]
		}
	}
	o1, o2 := entries[p1].obj, entries[p2].obj

	left := &node{page: n.page, leaf: n.leaf}
	right, err := t.allocNode(n.leaf)
	if err != nil {
		return nil, err
	}
	hr1 := emptyRings(len(t.pivots))
	hr2 := emptyRings(len(t.pivots))
	var r1, r2 float64
	addTo := func(dst *node, hr []ring, e entry, dp float64, r *float64) {
		e.dParent = dp
		if cover := dp + e.radius; cover > *r {
			*r = cover
		}
		if e.isLeaf {
			expandPD(hr, e.pd)
		} else {
			expandRings(hr, e.hr)
		}
		dst.entries = append(dst.entries, e)
	}
	for i := range entries {
		e := entries[i]
		d2 := t.dist.Distance(e.obj, o2)
		if d1s[i] <= d2 || i == p1 {
			addTo(left, hr1, e, d1s[i], &r1)
		} else {
			addTo(right, hr2, e, d2, &r2)
		}
	}
	// Guard against a degenerate one-sided partition.
	if len(right.entries) == 0 {
		last := left.entries[len(left.entries)-1]
		left.entries = left.entries[:len(left.entries)-1]
		addTo(right, hr2, last, t.dist.Distance(last.obj, o2), &r2)
	}
	if err := t.writeNode(left); err != nil {
		return nil, err
	}
	if err := t.writeNode(right); err != nil {
		return nil, err
	}
	return []entry{
		{obj: o1, objLen: len(o1.AppendBinary(nil)), radius: r1, child: left.page, hr: hr1},
		{obj: o2, objLen: len(o2.AppendBinary(nil)), radius: r2, child: right.page, hr: hr2},
	}, nil
}
