package bptree

// Delete removes the entry (cell, val). It returns ErrNotFound if no such
// entry exists. Underfull nodes are rebalanced by borrowing from or merging
// with an adjacent sibling; freed pages are not recycled (the store has no
// free list), matching the simple manipulation profile of the paper's
// Appendix C.
func (t *Tree) Delete(cell, val uint64) error {
	if t.root.page == invalidPage {
		return ErrNotFound
	}
	e := Entry{Cell: cell, Val: val}
	found, rootNode, err := t.deleteFrom(&t.root, e, t.pair(e))
	if err != nil {
		return err
	}
	if !found {
		return ErrNotFound
	}
	t.count--
	// Collapse the root: an internal root with a single child is replaced by
	// that child; an empty leaf root empties the tree. Collapsed pages are
	// released for reuse.
	for !rootNode.leaf && len(rootNode.children) == 1 {
		t.releaseNode(rootNode.page)
		t.root = rootNode.children[0]
		t.height--
		rootNode, err = t.readNode(t.root.page)
		if err != nil {
			return err
		}
	}
	if rootNode.leaf && len(rootNode.leafEntries) == 0 {
		t.releaseNode(rootNode.page)
		t.root = child{page: invalidPage}
		t.height = 0
		t.nLeaves = 0
	}
	return nil
}

func (t *Tree) minLeaf() int     { return t.maxLeaf / 2 }
func (t *Tree) minInternal() int { return t.maxInternal / 2 }

// deleteFrom removes e, whose order pair is ep, from the subtree referenced
// by c. It returns whether the entry was found and the (already written)
// in-memory node of c, so the caller can rebalance it against a sibling
// without re-reading the page.
func (t *Tree) deleteFrom(c *child, e Entry, ep Pair) (bool, *node, error) {
	n, err := t.readNode(c.page)
	if err != nil {
		return false, nil, err
	}
	if n.leaf {
		pos := t.leafSearch(n.leafEntries, func(p Pair) bool { return !p.Less(ep) })
		if pos >= len(n.leafEntries) || n.leafEntries[pos] != e {
			return false, n, nil
		}
		n.leafEntries = append(n.leafEntries[:pos], n.leafEntries[pos+1:]...)
		if err := t.writeNode(n); err != nil {
			return false, nil, err
		}
		t.refresh(c, n)
		return true, n, nil
	}

	idx := childIndex(n.children, ep)
	found, childNode, err := t.deleteFrom(&n.children[idx], e, ep)
	if err != nil {
		return false, nil, err
	}
	if !found {
		return false, n, nil
	}
	if t.underfull(childNode) {
		if err := t.rebalance(n, idx, childNode); err != nil {
			return false, nil, err
		}
	}
	if err := t.writeNode(n); err != nil {
		return false, nil, err
	}
	t.refresh(c, n)
	return true, n, nil
}

func (t *Tree) underfull(n *node) bool {
	if n.leaf {
		return len(n.leafEntries) < t.minLeaf()
	}
	return len(n.children) < t.minInternal()
}

// size returns the entry count of a node regardless of kind.
func size(n *node) int {
	if n.leaf {
		return len(n.leafEntries)
	}
	return len(n.children)
}

// rebalance fixes the underfull child at parent.children[idx] (whose node is
// cur) by borrowing from or merging with an adjacent sibling. The parent's
// child slice is updated in place; the parent itself is written by the
// caller.
func (t *Tree) rebalance(parent *node, idx int, cur *node) error {
	// Prefer the right sibling; fall back to the left.
	sibIdx := idx + 1
	if sibIdx >= len(parent.children) {
		sibIdx = idx - 1
	}
	if sibIdx < 0 {
		return nil // single-child parent: nothing to do, root collapse handles it
	}
	sib, err := t.readNode(parent.children[sibIdx].page)
	if err != nil {
		return err
	}
	left, right, leftIdx := cur, sib, idx
	if sibIdx < idx {
		left, right, leftIdx = sib, cur, sibIdx
	}

	if size(sib) > t.minSize(sib) {
		// Borrow one entry across the boundary.
		if left.leaf {
			if size(left) < size(right) {
				left.leafEntries = append(left.leafEntries, right.leafEntries[0])
				right.leafEntries = right.leafEntries[1:]
			} else {
				last := left.leafEntries[len(left.leafEntries)-1]
				left.leafEntries = left.leafEntries[:len(left.leafEntries)-1]
				right.leafEntries = append([]Entry{last}, right.leafEntries...)
			}
		} else {
			if size(left) < size(right) {
				left.children = append(left.children, right.children[0])
				right.children = right.children[1:]
			} else {
				last := left.children[len(left.children)-1]
				left.children = left.children[:len(left.children)-1]
				right.children = append([]child{last}, right.children...)
			}
		}
		if err := t.writeNode(left); err != nil {
			return err
		}
		if err := t.writeNode(right); err != nil {
			return err
		}
		t.refresh(&parent.children[leftIdx], left)
		t.refresh(&parent.children[leftIdx+1], right)
		return nil
	}

	// Merge right into left, drop right's parent entry and release its page.
	if left.leaf {
		left.leafEntries = append(left.leafEntries, right.leafEntries...)
		left.next = right.next
		t.nLeaves--
	} else {
		left.children = append(left.children, right.children...)
	}
	if err := t.writeNode(left); err != nil {
		return err
	}
	t.releaseNode(right.page)
	t.refresh(&parent.children[leftIdx], left)
	parent.children = append(parent.children[:leftIdx+1], parent.children[leftIdx+2:]...)
	return nil
}

func (t *Tree) minSize(n *node) int {
	if n.leaf {
		return t.minLeaf()
	}
	return t.minInternal()
}
