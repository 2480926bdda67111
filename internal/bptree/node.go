package bptree

import (
	"encoding/binary"
	"fmt"

	"spbtree/internal/page"
)

// On-disk node layout (page.Size bytes):
//
//	byte 0     flags: bit 0 = leaf
//	bytes 1-2  entry count (uint16, little endian)
//	bytes 3-6  next leaf page (uint32; 0xFFFFFFFF = none)
//	byte 7     reserved
//	bytes 8-   entries
//
// Leaf entry (16 bytes):    cell u64 | val u64
// Internal entry (36 bytes): minKey u64 | minVal u64 | page u32 | boxLo u64 | boxHi u64
//
// cell, boxLo and boxHi are cell words (a grid point's coordinates packed
// side by side, see Geometry), not SFC keys; a leaf's entries are in
// (key, val) order and minKey is a key, so routing reads no cells.
const (
	headerSize        = 8
	leafEntrySize     = 16
	internalEntrySize = 36

	maxLeafCap = (page.Size - headerSize) / leafEntrySize
)

// maxInternalCap returns the page-capacity internal fan-out. The box corners
// are fixed-width cell words, so capacity does not depend on dimensionality.
func maxInternalCap(dims int) int {
	return (page.Size - headerSize) / internalEntrySize
}

// readNode is ReadNode in the mutable working form the mutation algorithms
// and cursors edit and hold on to.
func (t *Tree) readNode(id page.ID) (*node, error) {
	var in Node
	if err := t.ReadNode(id, &in); err != nil {
		return nil, err
	}
	n := &node{page: id, leaf: in.Leaf, next: in.Next}
	if n.leaf {
		n.leafEntries = make([]Entry, len(in.Cells))
		for i := range n.leafEntries {
			n.leafEntries[i] = Entry{Cell: in.Cells[i], Val: in.Vals[i]}
		}
		return n, nil
	}
	n.children = make([]child, len(in.Children))
	for i, c := range in.Children {
		n.children[i] = child{min: Pair{Key: c.MinKey, Val: c.MinVal}, page: c.Page, boxLo: c.BoxLo, boxHi: c.BoxHi}
	}
	return n, nil
}

func (t *Tree) writeNode(n *node) error {
	var buf [page.Size]byte
	if n.leaf {
		buf[0] = 1
		if len(n.leafEntries) > maxLeafCap {
			return fmt.Errorf("bptree: leaf overflow: %d entries", len(n.leafEntries))
		}
		binary.LittleEndian.PutUint16(buf[1:3], uint16(len(n.leafEntries)))
		binary.LittleEndian.PutUint32(buf[3:7], uint32(n.next))
		off := headerSize
		for _, e := range n.leafEntries {
			binary.LittleEndian.PutUint64(buf[off:], e.Cell)
			binary.LittleEndian.PutUint64(buf[off+8:], e.Val)
			off += leafEntrySize
		}
	} else {
		if len(n.children) > maxInternalCap(t.dims) {
			return fmt.Errorf("bptree: internal overflow: %d children", len(n.children))
		}
		binary.LittleEndian.PutUint16(buf[1:3], uint16(len(n.children)))
		binary.LittleEndian.PutUint32(buf[3:7], uint32(invalidPage))
		off := headerSize
		for _, c := range n.children {
			binary.LittleEndian.PutUint64(buf[off:], c.min.Key)
			binary.LittleEndian.PutUint64(buf[off+8:], c.min.Val)
			binary.LittleEndian.PutUint32(buf[off+16:], uint32(c.page))
			binary.LittleEndian.PutUint64(buf[off+20:], c.boxLo)
			binary.LittleEndian.PutUint64(buf[off+28:], c.boxHi)
			off += internalEntrySize
		}
	}
	if err := t.store.Write(n.page, buf[:]); err != nil {
		return fmt.Errorf("bptree: write node: %w", err)
	}
	return nil
}

func (t *Tree) allocNode(leaf bool) (*node, error) {
	if n := len(t.free); n > 0 {
		id := t.free[n-1]
		t.free = t.free[:n-1]
		return &node{page: id, leaf: leaf, next: invalidPage}, nil
	}
	id, err := t.store.Alloc()
	if err != nil {
		return nil, fmt.Errorf("bptree: alloc node: %w", err)
	}
	return &node{page: id, leaf: leaf, next: invalidPage}, nil
}

// releaseNode returns a page to the free list for reuse.
func (t *Tree) releaseNode(id page.ID) {
	t.free = append(t.free, id)
}

// box computes the node's MBB as corner cell words.
func (t *Tree) box(n *node) (uint64, uint64) {
	if n.leaf {
		return t.leafBox(n.leafEntries)
	}
	return t.unionBox(n.children)
}

// leafBox computes a leaf MBB from its cells.
func (t *Tree) leafBox(entries []Entry) (uint64, uint64) {
	if len(entries) == 0 {
		return 0, 0
	}
	lo, hi := entries[0].Cell, entries[0].Cell
	for _, e := range entries[1:] {
		lo, hi = t.widen(lo, hi, e.Cell, e.Cell)
	}
	return lo, hi
}

// unionBox computes an internal node MBB as the union of its children's.
func (t *Tree) unionBox(children []child) (uint64, uint64) {
	if len(children) == 0 {
		return 0, 0
	}
	lo, hi := children[0].boxLo, children[0].boxHi
	for _, c := range children[1:] {
		lo, hi = t.widen(lo, hi, c.boxLo, c.boxHi)
	}
	return lo, hi
}

// widen returns the box [lo, hi] grown to cover [clo, chi], field by field.
func (t *Tree) widen(lo, hi, clo, chi uint64) (uint64, uint64) {
	var nlo, nhi uint64
	for d := 0; d < t.dims; d++ {
		sh := uint(d * t.bits)
		nlo |= min(lo>>sh&t.mask, clo>>sh&t.mask) << sh
		nhi |= max(hi>>sh&t.mask, chi>>sh&t.mask) << sh
	}
	return nlo, nhi
}

// refresh recomputes a child reference's min pair and box from the node's
// current contents.
func (t *Tree) refresh(c *child, n *node) {
	if n.leaf {
		if len(n.leafEntries) > 0 {
			c.min = t.pair(n.leafEntries[0])
		}
	} else {
		if len(n.children) > 0 {
			c.min = n.children[0].min
		}
	}
	c.boxLo, c.boxHi = t.box(n)
}
