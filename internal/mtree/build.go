package mtree

import (
	"fmt"

	"spbtree/internal/metric"
	"spbtree/internal/page"
)

// BulkLoad builds the tree with sampled recursive clustering in the manner
// of Ciaccia and Patella's bulk-loading: sample up to fanout seeds, assign
// every object to its nearest seed (this is where the M-tree's large
// construction compdists of Table 6 come from), and recurse per group.
// Groups are not re-balanced, so subtree heights may differ slightly — a
// known simplification that does not affect search correctness. A PM-tree
// first selects its global pivots from objs, then additionally computes the
// per-object pivot distances (|O|×np computations — its extra construction
// cost) and the per-subtree hyper-rings bottom-up.
func (t *Tree) BulkLoad(objs []metric.Object) error {
	if t.hasRoot {
		return fmt.Errorf("mtree: BulkLoad on non-empty tree")
	}
	if len(objs) == 0 {
		return nil
	}
	if err := t.selectPivots(objs); err != nil {
		return err
	}
	pg, _, _, err := t.bulkBuild(objs, nil, 0)
	if err != nil {
		return err
	}
	t.rootPage = pg
	t.hasRoot = true
	t.count = len(objs)
	return nil
}

// bulkBuild builds a subtree over objs whose parent routing object is parent
// (nil at the root). It returns the subtree's page, its covering radius
// w.r.t. parent, and its hyper-rings.
func (t *Tree) bulkBuild(objs []metric.Object, parent metric.Object, depth int) (page.ID, float64, []ring, error) {
	if depth > 64 {
		return 0, 0, nil, fmt.Errorf("mtree: bulk-load recursion too deep (degenerate data?)")
	}
	if t.leafFits(objs) {
		n, err := t.allocNode(true)
		if err != nil {
			return 0, 0, nil, err
		}
		hr := emptyRings(len(t.pivots))
		var radius float64
		n.entries = make([]entry, len(objs))
		for i, o := range objs {
			var dp float64
			if parent != nil {
				dp = t.dist.Distance(o, parent)
			}
			if dp > radius {
				radius = dp
			}
			pd := t.pivotDists(o)
			expandPD(hr, pd)
			n.entries[i] = entry{obj: o, objLen: len(o.AppendBinary(nil)), dParent: dp, isLeaf: true, pd: pd}
		}
		if err := t.writeNode(n); err != nil {
			return 0, 0, nil, err
		}
		return n.page, radius, hr, nil
	}

	f := t.fanoutEstimate(objs)
	seeds := t.sampleDistinct(objs, f)
	groups := make([][]metric.Object, len(seeds))
	// Assign each object to its nearest seed.
	for _, o := range objs {
		best, bd := 0, t.dist.Distance(o, seeds[0])
		for s := 1; s < len(seeds); s++ {
			if d := t.dist.Distance(o, seeds[s]); d < bd {
				best, bd = s, d
			}
		}
		groups[best] = append(groups[best], o)
	}
	// Degenerate clustering (duplicate-heavy data): fall back to arbitrary
	// chunking so recursion always shrinks, using each chunk's first object
	// as its routing seed.
	for gi := range groups {
		if len(groups[gi]) == len(objs) {
			groups = chunk(objs, len(seeds))
			seeds = make([]metric.Object, len(groups))
			for ci, g := range groups {
				seeds[ci] = g[0]
			}
			break
		}
	}

	hr := emptyRings(len(t.pivots))
	var radius float64
	var rents []entry
	for gi, group := range groups {
		if len(group) == 0 {
			continue
		}
		seed := seeds[gi]
		childPg, childRad, childHR, err := t.bulkBuild(group, seed, depth+1)
		if err != nil {
			return 0, 0, nil, err
		}
		var dp float64
		if parent != nil {
			dp = t.dist.Distance(seed, parent)
		}
		if cover := dp + childRad; cover > radius {
			radius = cover
		}
		expandRings(hr, childHR)
		rents = append(rents, entry{
			obj: seed, objLen: len(seed.AppendBinary(nil)),
			dParent: dp, radius: childRad, child: childPg, hr: childHR,
		})
	}
	pg, err := t.packEntries(rents, parent)
	if err != nil {
		return 0, 0, nil, err
	}
	return pg, radius, hr, nil
}

// packEntries writes routing entries into one internal node, or — when
// variable-size routing objects exceed the page budget the fan-out estimate
// assumed — spills them into several nodes under a fresh internal level,
// recomputing distances to the interposed routing objects so the
// parent-distance pruning invariant holds.
func (t *Tree) packEntries(rents []entry, parent metric.Object) (page.ID, error) {
	if t.nodeBytes(rents) <= page.Size || len(rents) < 2 {
		n, err := t.allocNode(false)
		if err != nil {
			return 0, err
		}
		n.entries = rents
		if err := t.writeNode(n); err != nil {
			return 0, err
		}
		return n.page, nil
	}
	// Greedy byte packing into fitting chunks.
	var supers []entry
	start := 0
	for start < len(rents) {
		end := start + 1
		size := nodeHeader + t.routingEntryBytes(rents[start].objLen)
		for end < len(rents) {
			next := t.routingEntryBytes(rents[end].objLen)
			if size+next > page.Size {
				break
			}
			size += next
			end++
		}
		chunk := make([]entry, end-start)
		copy(chunk, rents[start:end])
		start = end

		pivotObj := chunk[0].obj
		hr := emptyRings(len(t.pivots))
		var radius float64
		for i := range chunk {
			d := t.dist.Distance(chunk[i].obj, pivotObj)
			chunk[i].dParent = d
			if cover := d + chunk[i].radius; cover > radius {
				radius = cover
			}
			expandRings(hr, chunk[i].hr)
		}
		n, err := t.allocNode(false)
		if err != nil {
			return 0, err
		}
		n.entries = chunk
		if err := t.writeNode(n); err != nil {
			return 0, err
		}
		var dp float64
		if parent != nil {
			dp = t.dist.Distance(pivotObj, parent)
		}
		supers = append(supers, entry{
			obj: pivotObj, objLen: len(pivotObj.AppendBinary(nil)),
			dParent: dp, radius: radius, child: n.page, hr: hr,
		})
	}
	if len(supers) >= len(rents) {
		return 0, fmt.Errorf("mtree: routing entries too large to pack (objects near page size?)")
	}
	return t.packEntries(supers, parent)
}

// leafFits reports whether objs serialize into a single leaf page.
func (t *Tree) leafFits(objs []metric.Object) bool {
	n := nodeHeader
	for _, o := range objs {
		n += t.leafEntryBytes(len(o.AppendBinary(nil)))
		if n > page.Size {
			return false
		}
	}
	return true
}

// fanoutEstimate picks the clustering arity from the average object size.
func (t *Tree) fanoutEstimate(objs []metric.Object) int {
	sampleN := len(objs)
	if sampleN > 32 {
		sampleN = 32
	}
	total := 0
	for i := 0; i < sampleN; i++ {
		total += len(objs[i].AppendBinary(nil))
	}
	avg := total/sampleN + 1
	f := (page.Size - nodeHeader) / t.routingEntryBytes(avg)
	if f < 2 {
		f = 2
	}
	if f > 64 {
		f = 64
	}
	if f > len(objs) {
		f = len(objs)
	}
	return f
}

// sampleDistinct draws up to k objects without replacement.
func (t *Tree) sampleDistinct(objs []metric.Object, k int) []metric.Object {
	idx := t.rng.Perm(len(objs))
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]metric.Object, k)
	for i := 0; i < k; i++ {
		out[i] = objs[idx[i]]
	}
	return out
}

func chunk(objs []metric.Object, k int) [][]metric.Object {
	if k < 2 {
		k = 2
	}
	size := (len(objs) + k - 1) / k
	var out [][]metric.Object
	for i := 0; i < len(objs); i += size {
		end := i + size
		if end > len(objs) {
			end = len(objs)
		}
		out = append(out, objs[i:end])
	}
	return out
}
