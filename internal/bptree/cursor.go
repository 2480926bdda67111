package bptree

// Cursor iterates leaf entries in ascending (key, val) order, following the
// leaf chain. The similarity-join algorithm's merge pass is built on it.
type Cursor struct {
	t    *Tree
	node *node
	idx  int
	err  error
}

// SeekFirst positions a cursor at the smallest entry.
func (t *Tree) SeekFirst() *Cursor {
	return t.seek(Pair{}, true)
}

// Seek positions a cursor at the first entry with Key >= key. In the leaf it
// lands on, only the entries its binary search probes are encoded.
func (t *Tree) Seek(key uint64) *Cursor {
	return t.seek(Pair{Key: key}, false)
}

func (t *Tree) seek(e Pair, first bool) *Cursor {
	c := &Cursor{t: t}
	if t.root.page == invalidPage {
		return c
	}
	ref := t.root
	for {
		n, err := t.readNode(ref.page)
		if err != nil {
			c.err = err
			return c
		}
		if n.leaf {
			c.node = n
			if first {
				c.idx = 0
			} else {
				c.idx = t.leafSearch(n.leafEntries, func(p Pair) bool { return !p.Less(e) })
			}
			c.skipExhausted()
			return c
		}
		if first {
			ref = n.children[0]
		} else {
			ref = n.children[childIndex(n.children, e)]
		}
	}
}

// skipExhausted advances past empty tails onto the next leaf if needed.
func (c *Cursor) skipExhausted() {
	for c.node != nil && c.idx >= len(c.node.leafEntries) {
		if c.node.next == invalidPage {
			c.node = nil
			return
		}
		n, err := c.t.readNode(c.node.next)
		if err != nil {
			c.err = err
			c.node = nil
			return
		}
		c.node = n
		c.idx = 0
	}
}

// Valid reports whether the cursor is positioned on an entry.
func (c *Cursor) Valid() bool { return c.node != nil && c.err == nil }

// Key returns the current entry's key, encoded from its cell. The cursor must
// be Valid.
func (c *Cursor) Key() uint64 { return c.t.key(c.node.leafEntries[c.idx].Cell) }

// Cell returns the current entry's cell word. The cursor must be Valid.
func (c *Cursor) Cell() uint64 { return c.node.leafEntries[c.idx].Cell }

// Val returns the current entry's value. The cursor must be Valid.
func (c *Cursor) Val() uint64 { return c.node.leafEntries[c.idx].Val }

// Next advances to the following entry, crossing leaves as needed.
func (c *Cursor) Next() {
	if !c.Valid() {
		return
	}
	c.idx++
	c.skipExhausted()
}

// Err returns the first I/O error the cursor encountered, if any.
func (c *Cursor) Err() error { return c.err }
