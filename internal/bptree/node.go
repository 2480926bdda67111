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
// Leaf entry (16 bytes):    key u64 | val u64
// Internal entry (36 bytes): minKey u64 | minVal u64 | page u32 | boxLo u64 | boxHi u64
const (
	headerSize        = 8
	leafEntrySize     = 16
	internalEntrySize = 36

	maxLeafCap = (page.Size - headerSize) / leafEntrySize
)

// maxInternalCap returns the page-capacity internal fan-out. The box corners
// are fixed-width SFC keys, so capacity does not depend on dimensionality.
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
		n.leafEntries = make([]Pair, len(in.Keys))
		for i := range n.leafEntries {
			n.leafEntries[i] = Pair{Key: in.Keys[i], Val: in.Vals[i]}
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
			binary.LittleEndian.PutUint64(buf[off:], e.Key)
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

// box computes the node's MBB as SFC corner encodings.
func (t *Tree) box(n *node) (uint64, uint64) {
	if n.leaf {
		return t.leafBox(n.leafEntries)
	}
	return t.unionBox(n.children)
}

// leafBox computes a leaf MBB from its keys.
func (t *Tree) leafBox(entries []Pair) (uint64, uint64) {
	if len(entries) == 0 {
		return 0, 0
	}
	if t.geo == nil {
		// Entries are ordered, so the key interval is [first, last].
		return entries[0].Key, entries[len(entries)-1].Key
	}
	lo := make([]uint32, t.dims)
	hi := make([]uint32, t.dims)
	p := make([]uint32, t.dims)
	t.geo.Decode(entries[0].Key, p)
	copy(lo, p)
	copy(hi, p)
	for _, e := range entries[1:] {
		t.geo.Decode(e.Key, p)
		for i, v := range p {
			if v < lo[i] {
				lo[i] = v
			}
			if v > hi[i] {
				hi[i] = v
			}
		}
	}
	return t.geo.Encode(lo), t.geo.Encode(hi)
}

// unionBox computes an internal node MBB as the union of its children's.
func (t *Tree) unionBox(children []child) (uint64, uint64) {
	if len(children) == 0 {
		return 0, 0
	}
	if t.geo == nil {
		lo := children[0].boxLo
		hi := children[0].boxHi
		for _, c := range children[1:] {
			if c.boxLo < lo {
				lo = c.boxLo
			}
			if c.boxHi > hi {
				hi = c.boxHi
			}
		}
		return lo, hi
	}
	lo := make([]uint32, t.dims)
	hi := make([]uint32, t.dims)
	p := make([]uint32, t.dims)
	t.geo.Decode(children[0].boxLo, lo)
	t.geo.Decode(children[0].boxHi, hi)
	for _, c := range children[1:] {
		t.geo.Decode(c.boxLo, p)
		for i, v := range p {
			if v < lo[i] {
				lo[i] = v
			}
		}
		t.geo.Decode(c.boxHi, p)
		for i, v := range p {
			if v > hi[i] {
				hi[i] = v
			}
		}
	}
	return t.geo.Encode(lo), t.geo.Encode(hi)
}

// refresh recomputes a child reference's min pair and box from the node's
// current contents.
func (t *Tree) refresh(c *child, n *node) {
	if n.leaf {
		if len(n.leafEntries) > 0 {
			c.min = n.leafEntries[0]
		}
	} else {
		if len(n.children) > 0 {
			c.min = n.children[0].min
		}
	}
	c.boxLo, c.boxHi = t.box(n)
}
