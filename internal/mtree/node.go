package mtree

import (
	"encoding/binary"
	"fmt"
	"math"

	"spbtree/internal/page"
)

// On-disk node layout:
//
//	byte 0    flags: bit 0 = leaf
//	bytes 1-2 entry count
//	bytes 3-7 reserved
//	leaf entry:    id u64 | objLen u32 | obj | dParent f64 | pd np×f64
//	routing entry: id u64 | objLen u32 | obj | dParent f64 | radius f64 |
//	               child u32 | hr 2·np×f64
//
// np is the tree's global pivot count; it is fixed at the first load, so
// entry widths are implied. A plain M-tree has np = 0 and neither pd nor hr.
const nodeHeader = 8

func (t *Tree) leafEntryBytes(objLen int) int {
	return 8 + 4 + objLen + 8 + 8*len(t.pivots)
}

func (t *Tree) routingEntryBytes(objLen int) int {
	return 8 + 4 + objLen + 8 + 8 + 4 + 16*len(t.pivots)
}

func (t *Tree) entryBytes(objLen int, leaf bool) int {
	if leaf {
		return t.leafEntryBytes(objLen)
	}
	return t.routingEntryBytes(objLen)
}

func (t *Tree) nodeBytes(entries []entry) int {
	n := nodeHeader
	for i := range entries {
		n += t.entryBytes(entries[i].objLen, entries[i].isLeaf)
	}
	return n
}

func (t *Tree) writeNode(n *node) error {
	var buf [page.Size]byte
	if n.leaf {
		buf[0] = 1
	}
	if len(n.entries) > 0xFFFF {
		return fmt.Errorf("mtree: node %d entry count %d overflow", n.page, len(n.entries))
	}
	binary.LittleEndian.PutUint16(buf[1:3], uint16(len(n.entries)))
	off := nodeHeader
	for i := range n.entries {
		e := &n.entries[i]
		payload := e.obj.AppendBinary(nil)
		if need := t.entryBytes(len(payload), n.leaf); off+need > page.Size {
			return fmt.Errorf("mtree: node %d overflows page (%d bytes)", n.page, off+need)
		}
		binary.LittleEndian.PutUint64(buf[off:], e.obj.ID())
		binary.LittleEndian.PutUint32(buf[off+8:], uint32(len(payload)))
		copy(buf[off+12:], payload)
		p := off + 12 + len(payload)
		binary.LittleEndian.PutUint64(buf[p:], math.Float64bits(e.dParent))
		p += 8
		if n.leaf {
			for _, d := range e.pd {
				binary.LittleEndian.PutUint64(buf[p:], math.Float64bits(d))
				p += 8
			}
		} else {
			binary.LittleEndian.PutUint64(buf[p:], math.Float64bits(e.radius))
			binary.LittleEndian.PutUint32(buf[p+8:], uint32(e.child))
			p += 12
			for _, rg := range e.hr {
				binary.LittleEndian.PutUint64(buf[p:], math.Float64bits(rg.lo))
				binary.LittleEndian.PutUint64(buf[p+8:], math.Float64bits(rg.hi))
				p += 16
			}
		}
		off = p
	}
	if err := t.store.Write(n.page, buf[:]); err != nil {
		return fmt.Errorf("mtree: write node: %w", err)
	}
	return nil
}

func (t *Tree) readNode(pg page.ID) (*node, error) {
	var buf [page.Size]byte
	if err := t.store.Read(pg, buf[:]); err != nil {
		return nil, fmt.Errorf("mtree: read node: %w", err)
	}
	n := &node{page: pg, leaf: buf[0]&1 != 0}
	cnt := int(binary.LittleEndian.Uint16(buf[1:3]))
	np := len(t.pivots)
	n.entries = make([]entry, cnt)
	off := nodeHeader
	for i := 0; i < cnt; i++ {
		if off+12 > page.Size {
			return nil, fmt.Errorf("mtree: corrupt node %d", pg)
		}
		id := binary.LittleEndian.Uint64(buf[off:])
		objLen := int(binary.LittleEndian.Uint32(buf[off+8:]))
		// The whole entry — object, parent distance, radius and child, and
		// the np pivot distances or rings — must lie inside the page.
		if objLen > page.Size || off+t.entryBytes(objLen, n.leaf) > page.Size {
			return nil, fmt.Errorf("mtree: corrupt node %d: entry %d, objLen %d, runs past the page", pg, i, objLen)
		}
		obj, err := t.codec.Decode(id, buf[off+12:off+12+objLen])
		if err != nil {
			return nil, fmt.Errorf("mtree: node %d entry %d: %w", pg, i, err)
		}
		e := &n.entries[i]
		e.obj = obj
		e.objLen = objLen
		e.isLeaf = n.leaf
		p := off + 12 + objLen
		e.dParent = math.Float64frombits(binary.LittleEndian.Uint64(buf[p:]))
		p += 8
		if n.leaf {
			e.pd = make([]float64, np)
			for j := range e.pd {
				e.pd[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[p:]))
				p += 8
			}
		} else {
			e.radius = math.Float64frombits(binary.LittleEndian.Uint64(buf[p:]))
			e.child = page.ID(binary.LittleEndian.Uint32(buf[p+8:]))
			p += 12
			e.hr = make([]ring, np)
			for j := range e.hr {
				e.hr[j].lo = math.Float64frombits(binary.LittleEndian.Uint64(buf[p:]))
				e.hr[j].hi = math.Float64frombits(binary.LittleEndian.Uint64(buf[p+8:]))
				p += 16
			}
		}
		off = p
	}
	return n, nil
}

func (t *Tree) allocNode(leaf bool) (*node, error) {
	pg, err := t.store.Alloc()
	if err != nil {
		return nil, fmt.Errorf("mtree: alloc: %w", err)
	}
	return &node{page: pg, leaf: leaf}, nil
}
