package bptree

import "fmt"

// CheckInvariants validates the full structural health of the tree: entry
// ordering, parent min-pair and MBB correctness, occupancy bounds, uniform
// leaf depth, and leaf-chain consistency. Order, min pairs and boxes are
// derived from the stored cells: each entry's key is encoded from its cell
// and each box is recomputed field by field. It reads the whole tree and exists
// for tests; production code never calls it.
func (t *Tree) CheckInvariants() error {
	if t.root.page == invalidPage {
		if t.count != 0 || t.height != 0 || t.nLeaves != 0 {
			return fmt.Errorf("empty tree with count=%d height=%d leaves=%d", t.count, t.height, t.nLeaves)
		}
		return nil
	}
	var (
		entries   int
		leaves    int
		leafDepth = -1
		prevLeaf  *node
		prevPair  *Pair
	)
	var visit func(c child, depth int, isRoot bool) error
	visit = func(c child, depth int, isRoot bool) error {
		n, err := t.readNode(c.page)
		if err != nil {
			return err
		}
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("leaf %d at depth %d, expected %d", n.page, depth, leafDepth)
			}
			if !isRoot && len(n.leafEntries) < t.minLeaf() {
				return fmt.Errorf("leaf %d underfull: %d < %d", n.page, len(n.leafEntries), t.minLeaf())
			}
			if len(n.leafEntries) > t.maxLeaf {
				return fmt.Errorf("leaf %d overfull: %d > %d", n.page, len(n.leafEntries), t.maxLeaf)
			}
			if len(n.leafEntries) == 0 && !isRoot {
				return fmt.Errorf("leaf %d empty", n.page)
			}
			for i, e := range n.leafEntries {
				p := t.pair(e)
				if prevPair != nil && p.Less(*prevPair) {
					return fmt.Errorf("leaf %d entry %d out of key order: key %d after %d", n.page, i, p.Key, prevPair.Key)
				}
				prevPair = &p
			}
			if len(n.leafEntries) > 0 && t.pair(n.leafEntries[0]) != c.min {
				return fmt.Errorf("leaf %d min %v != parent ref %v", n.page, t.pair(n.leafEntries[0]), c.min)
			}
			wantLo, wantHi := t.leafBox(n.leafEntries)
			if wantLo != c.boxLo || wantHi != c.boxHi {
				return fmt.Errorf("leaf %d box (%d,%d) != parent ref (%d,%d)", n.page, wantLo, wantHi, c.boxLo, c.boxHi)
			}
			if prevLeaf != nil && prevLeaf.next != n.page {
				return fmt.Errorf("leaf chain broken: %d.next=%d, expected %d", prevLeaf.page, prevLeaf.next, n.page)
			}
			prevLeaf = n
			leaves++
			entries += len(n.leafEntries)
			return nil
		}
		if !isRoot && len(n.children) < t.minInternal() {
			return fmt.Errorf("internal %d underfull: %d < %d", n.page, len(n.children), t.minInternal())
		}
		if isRoot && len(n.children) < 2 {
			return fmt.Errorf("internal root %d has %d children", n.page, len(n.children))
		}
		if len(n.children) > t.maxInternal {
			return fmt.Errorf("internal %d overfull: %d > %d", n.page, len(n.children), t.maxInternal)
		}
		if n.children[0].min != c.min {
			return fmt.Errorf("internal %d min %v != parent ref %v", n.page, n.children[0].min, c.min)
		}
		wantLo, wantHi := t.unionBox(n.children)
		if wantLo != c.boxLo || wantHi != c.boxHi {
			return fmt.Errorf("internal %d box (%d,%d) != parent ref (%d,%d)", n.page, wantLo, wantHi, c.boxLo, c.boxHi)
		}
		for i, cc := range n.children {
			if i > 0 && cc.min.Less(n.children[i-1].min) {
				return fmt.Errorf("internal %d children out of order at %d", n.page, i)
			}
			if err := visit(cc, depth+1, false); err != nil {
				return err
			}
		}
		return nil
	}
	if err := visit(t.root, 0, true); err != nil {
		return err
	}
	if prevLeaf != nil && prevLeaf.next != invalidPage {
		return fmt.Errorf("last leaf %d has next %d", prevLeaf.page, prevLeaf.next)
	}
	if entries != t.count {
		return fmt.Errorf("count %d != actual %d", t.count, entries)
	}
	if leaves != t.nLeaves {
		return fmt.Errorf("nLeaves %d != actual %d", t.nLeaves, leaves)
	}
	if leafDepth+1 != t.height {
		return fmt.Errorf("height %d != actual %d", t.height, leafDepth+1)
	}
	return nil
}
