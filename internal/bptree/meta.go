package bptree

import (
	"encoding/binary"
	"fmt"

	"spbtree/internal/page"
)

// metaVersion versions the Meta encoding and the node format it describes.
// Version 2 added the free-page list; version 3 stores cell words, not SFC
// keys, in leaf entries and box corners (the root box included), so a tree
// written before it is refused rather than read with keys taken for cells.
const metaVersion = 3

// metaFixed is the fixed prefix size: version + root child (min pair, page,
// boxes) + height/count/nLeaves + fan-outs + free-list length.
const metaFixed = 1 + 8 + 8 + 4 + 8 + 8 + 8 + 8 + 8 + 4 + 4 + 4

// Meta returns an opaque snapshot of the tree's bookkeeping (root location,
// counters, fan-outs, free pages). Persist it alongside the page store and
// pass it to Open to reopen the tree.
func (t *Tree) Meta() []byte {
	b := make([]byte, 0, metaFixed+4*len(t.free))
	b = append(b, metaVersion)
	b = binary.LittleEndian.AppendUint64(b, t.root.min.Key)
	b = binary.LittleEndian.AppendUint64(b, t.root.min.Val)
	b = binary.LittleEndian.AppendUint32(b, uint32(t.root.page))
	b = binary.LittleEndian.AppendUint64(b, t.root.boxLo)
	b = binary.LittleEndian.AppendUint64(b, t.root.boxHi)
	b = binary.LittleEndian.AppendUint64(b, uint64(t.height))
	b = binary.LittleEndian.AppendUint64(b, uint64(t.count))
	b = binary.LittleEndian.AppendUint64(b, uint64(t.nLeaves))
	b = binary.LittleEndian.AppendUint32(b, uint32(t.maxLeaf))
	b = binary.LittleEndian.AppendUint32(b, uint32(t.maxInternal))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(t.free)))
	for _, id := range t.free {
		b = binary.LittleEndian.AppendUint32(b, uint32(id))
	}
	return b
}

// Open reopens a tree previously persisted to store. The fan-outs come from
// meta (opts.MaxLeaf/MaxInternal are ignored); opts.Geometry must match the
// one the tree was built with.
func Open(store page.Store, opts Options, meta []byte) (*Tree, error) {
	if len(meta) < metaFixed {
		return nil, fmt.Errorf("bptree: meta is %d bytes, want at least %d", len(meta), metaFixed)
	}
	if meta[0] != metaVersion {
		return nil, fmt.Errorf("bptree: meta version %d, want %d", meta[0], metaVersion)
	}
	b := meta[1:]
	opts.MaxLeaf = int(binary.LittleEndian.Uint32(b[60:64]))
	opts.MaxInternal = int(binary.LittleEndian.Uint32(b[64:68]))
	t, err := New(store, opts)
	if err != nil {
		return nil, err
	}
	t.root.min.Key = binary.LittleEndian.Uint64(b[0:8])
	t.root.min.Val = binary.LittleEndian.Uint64(b[8:16])
	t.root.page = page.ID(binary.LittleEndian.Uint32(b[16:20]))
	t.root.boxLo = binary.LittleEndian.Uint64(b[20:28])
	t.root.boxHi = binary.LittleEndian.Uint64(b[28:36])
	t.height = int(binary.LittleEndian.Uint64(b[36:44]))
	t.count = int(binary.LittleEndian.Uint64(b[44:52]))
	t.nLeaves = int(binary.LittleEndian.Uint64(b[52:60]))
	nFree := int(binary.LittleEndian.Uint32(b[68:72]))
	if len(meta) != metaFixed+4*nFree {
		return nil, fmt.Errorf("bptree: meta is %d bytes, want %d for %d free pages", len(meta), metaFixed+4*nFree, nFree)
	}
	t.free = make([]page.ID, nFree)
	for i := range t.free {
		t.free[i] = page.ID(binary.LittleEndian.Uint32(b[72+4*i:]))
		if int(t.free[i]) >= store.NumPages() {
			return nil, fmt.Errorf("bptree: meta free page %d beyond store", t.free[i])
		}
	}
	if t.root.page != invalidPage && int(t.root.page) >= store.NumPages() {
		return nil, fmt.Errorf("bptree: meta root page %d beyond store (%d pages)", t.root.page, store.NumPages())
	}
	return t, nil
}
