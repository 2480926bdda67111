package bptree

import "sort"

// Insert adds the entry (cell, val), ordered by (key of cell, val).
// Duplicate entries are permitted and stored as a multiset, though SPB-tree
// usage always supplies unique vals.
func (t *Tree) Insert(cell, val uint64) error {
	e := Entry{Cell: cell, Val: val}
	if t.root.page == invalidPage {
		leaf, err := t.allocNode(true)
		if err != nil {
			return err
		}
		leaf.leafEntries = []Entry{e}
		if err := t.writeNode(leaf); err != nil {
			return err
		}
		t.root = child{page: leaf.page}
		t.refresh(&t.root, leaf)
		t.height = 1
		t.count = 1
		t.nLeaves = 1
		return nil
	}
	split, err := t.insertInto(&t.root, e, t.pair(e))
	if err != nil {
		return err
	}
	if split != nil {
		r, err := t.allocNode(false)
		if err != nil {
			return err
		}
		r.children = []child{t.root, *split}
		if err := t.writeNode(r); err != nil {
			return err
		}
		nc := child{page: r.page}
		t.refresh(&nc, r)
		t.root = nc
		t.height++
	}
	t.count++
	return nil
}

// insertInto inserts e, whose order pair is ep, into the subtree referenced
// by c, updating c's min pair and box in place. If the subtree's root node
// split, the new right sibling's reference is returned for the caller to
// adopt.
func (t *Tree) insertInto(c *child, e Entry, ep Pair) (*child, error) {
	n, err := t.readNode(c.page)
	if err != nil {
		return nil, err
	}
	if n.leaf {
		pos := t.leafSearch(n.leafEntries, ep.Less)
		n.leafEntries = append(n.leafEntries, Entry{})
		copy(n.leafEntries[pos+1:], n.leafEntries[pos:])
		n.leafEntries[pos] = e
		if len(n.leafEntries) <= t.maxLeaf {
			if err := t.writeNode(n); err != nil {
				return nil, err
			}
			t.refresh(c, n)
			return nil, nil
		}
		// Split the leaf in half; the right half becomes a new node spliced
		// into the leaf chain.
		mid := len(n.leafEntries) / 2
		right, err := t.allocNode(true)
		if err != nil {
			return nil, err
		}
		right.leafEntries = append(right.leafEntries, n.leafEntries[mid:]...)
		n.leafEntries = n.leafEntries[:mid]
		right.next = n.next
		n.next = right.page
		if err := t.writeNode(n); err != nil {
			return nil, err
		}
		if err := t.writeNode(right); err != nil {
			return nil, err
		}
		t.nLeaves++
		t.refresh(c, n)
		rc := child{page: right.page}
		t.refresh(&rc, right)
		return &rc, nil
	}

	idx := childIndex(n.children, ep)
	split, err := t.insertInto(&n.children[idx], e, ep)
	if err != nil {
		return nil, err
	}
	if split != nil {
		pos := idx + 1
		n.children = append(n.children, child{})
		copy(n.children[pos+1:], n.children[pos:])
		n.children[pos] = *split
	}
	if len(n.children) <= t.maxInternal {
		if err := t.writeNode(n); err != nil {
			return nil, err
		}
		t.refresh(c, n)
		return nil, nil
	}
	mid := len(n.children) / 2
	right, err := t.allocNode(false)
	if err != nil {
		return nil, err
	}
	right.children = append(right.children, n.children[mid:]...)
	n.children = n.children[:mid]
	if err := t.writeNode(n); err != nil {
		return nil, err
	}
	if err := t.writeNode(right); err != nil {
		return nil, err
	}
	t.refresh(c, n)
	rc := child{page: right.page}
	t.refresh(&rc, right)
	return &rc, nil
}

// childIndex returns the index of the child whose subtree should contain e:
// the last child whose min pair is <= e, clamped to 0 for entries smaller
// than every subtree.
func childIndex(children []child, e Pair) int {
	idx := sort.Search(len(children), func(i int) bool { return e.Less(children[i].min) }) - 1
	if idx < 0 {
		idx = 0
	}
	return idx
}
