// Package bptree implements the disk-based B+-tree underlying the SPB-tree:
// a B+-tree ordered by uint64 space-filling-curve keys whose non-leaf entries
// are augmented with minimum bounding boxes (MBBs) of their subtrees.
//
// A leaf entry and a box corner store a grid point as its cell word — the
// point's coordinates packed side by side (sfc.Pack) — where the paper's
// Fig. 4 stores the point's SFC value. The curve is a bijection, so the
// 8-byte word holds the same information; but the query algorithms filter in
// cell space and read the word with a shift and mask per dimension instead
// of inverting the curve. The key is computed from the cells (Geometry)
// wherever order is needed: leaf binary searches, parent min pairs and
// cursors.
//
// Entries are ordered by the composite pair (key, val); val is the RAF
// pointer of the object and is unique, so duplicate SFC keys (distinct
// objects quantized to the same cell) are totally ordered and insertion and
// deletion stay deterministic.
//
// The tree supports bulk-loading from sorted input, single insert and delete
// with node rebalancing (borrow/merge), ascending leaf-level cursors, and
// direct node access for the search algorithms in internal/core, which
// implement their own traversals over node MBBs.
package bptree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"spbtree/internal/obs"
	"spbtree/internal/page"
)

// Geometry describes the grid the stored cell words pack and orders them:
// a cell word holds Dims coordinates of Bits bits, dimension d at bits
// [d·Bits, (d+1)·Bits), and EncodeCell returns its curve key. sfc.Curve
// satisfies Geometry. With a nil Geometry the stored word is the key itself
// and boxes are raw key intervals [min key, max key], which is what plain
// one-dimensional users (e.g. the M-Index baseline) need.
type Geometry interface {
	// Dims returns the number of coordinates in a cell word.
	Dims() int
	// Bits returns the width of one coordinate.
	Bits() int
	// EncodeCell returns the curve key of the point packed in cell.
	EncodeCell(cell uint64) uint64
}

// Entry is a leaf entry: a grid point's cell word (with a nil Geometry, the
// key) and the unique value (RAF pointer).
type Entry struct {
	Cell uint64
	Val  uint64
}

// Pair is a composite order identifier: the SFC key plus the unique value
// (RAF pointer). Pairs order lexicographically; a parent's min pair is one.
type Pair struct {
	Key uint64
	Val uint64
}

// Less reports whether p orders strictly before q.
func (p Pair) Less(q Pair) bool {
	if p.Key != q.Key {
		return p.Key < q.Key
	}
	return p.Val < q.Val
}

// invalidPage marks "no page" (e.g. the last leaf's next pointer).
const invalidPage page.ID = ^page.ID(0)

// Options configures a Tree.
type Options struct {
	// Geometry maintains MBBs; nil degrades to key intervals.
	Geometry Geometry
	// MaxLeaf overrides the leaf fan-out (entries per leaf). 0 means the
	// page-capacity maximum. Tests use small values to force deep trees.
	MaxLeaf int
	// MaxInternal overrides the internal fan-out. 0 means the page-capacity
	// maximum.
	MaxInternal int
}

// Tree is a disk-based B+-tree with MBB-augmented non-leaf entries.
type Tree struct {
	store *page.Cache
	geo   Geometry
	// Cell words hold dims fields of bits bits each; mask is one field's. A
	// nil Geometry makes the whole word one field.
	dims, bits int
	mask       uint64

	maxLeaf, maxInternal int

	root    child // root reference; root.page == invalidPage when empty
	height  int   // number of levels; 0 when empty
	count   int   // number of entries
	nLeaves int   // number of leaf nodes

	// free holds pages released by node merges and root collapses, reused
	// by later allocations so churn does not grow the store.
	free []page.ID

	// tracer, when non-nil, receives one EvNodeRead per node decoded.
	tracer obs.Tracer
}

// SetTracer installs (or, with nil, removes) a tracer receiving one
// structured EvNodeRead event per node decoded by ReadNode and the internal
// traversals. Not synchronized with in-flight reads: install tracers before
// issuing queries.
func (t *Tree) SetTracer(tr obs.Tracer) { t.tracer = tr }

// FreePages returns how many released pages await reuse.
func (t *Tree) FreePages() int { return len(t.free) }

// child references a node from its parent: the minimum pair of its subtree,
// its page, and its subtree MBB as the cell words of its corners.
type child struct {
	min   Pair
	page  page.ID
	boxLo uint64
	boxHi uint64
}

// New creates an empty tree on store. Nodes are decoded out of pinned cache
// frames (page.Cache.Pin), so a store that is not already a cache is wrapped
// in a pass-through one.
func New(store page.Store, opts Options) (*Tree, error) {
	t := &Tree{
		store:       page.AsCache(store),
		geo:         opts.Geometry,
		maxLeaf:     opts.MaxLeaf,
		maxInternal: opts.MaxInternal,
		root:        child{page: invalidPage},
	}
	t.dims, t.bits = 1, 64
	if t.geo != nil {
		t.dims, t.bits = t.geo.Dims(), t.geo.Bits()
	}
	t.mask = ^uint64(0) >> (64 - t.bits)
	if t.maxLeaf == 0 {
		t.maxLeaf = maxLeafCap
	}
	if t.maxInternal == 0 {
		t.maxInternal = maxInternalCap(t.dims)
	}
	if t.maxLeaf < 2 || t.maxLeaf > maxLeafCap {
		return nil, fmt.Errorf("bptree: MaxLeaf %d out of range [2, %d]", t.maxLeaf, maxLeafCap)
	}
	if t.maxInternal < 3 || t.maxInternal > maxInternalCap(t.dims) {
		return nil, fmt.Errorf("bptree: MaxInternal %d out of range [3, %d]", t.maxInternal, maxInternalCap(t.dims))
	}
	return t, nil
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.count }

// Height returns the number of levels (0 for an empty tree).
func (t *Tree) Height() int { return t.height }

// NumLeaves returns the number of leaf nodes, i.e. the |SPB| term of the
// paper's join cost model (eq. 8).
func (t *Tree) NumLeaves() int { return t.nLeaves }

// Root returns the root node reference and whether the tree is non-empty.
func (t *Tree) Root() (NodeRef, bool) {
	if t.root.page == invalidPage {
		return NodeRef{}, false
	}
	return NodeRef{MinKey: t.root.min.Key, MinVal: t.root.min.Val, Page: t.root.page, BoxLo: t.root.boxLo, BoxHi: t.root.boxHi}, true
}

// NodeRef is the public form of a parent-to-child reference, exposed so the
// query algorithms in internal/core can traverse the tree with MBB pruning.
type NodeRef struct {
	// MinKey and MinVal identify the smallest pair in the subtree.
	MinKey, MinVal uint64
	// Page locates the node.
	Page page.ID
	// BoxLo and BoxHi are the cell words of the subtree MBB's lower and
	// upper corner points.
	BoxLo, BoxHi uint64
}

// Node is the decoded form of a tree node. ReadNode fills a caller-owned
// Node, reusing its slices, so a traversal decodes every node it visits into
// one scratch value.
type Node struct {
	// Leaf reports whether the node is a leaf.
	Leaf bool
	// Next is the following leaf's page, or false via HasNext for the last.
	Next page.ID
	// Cells and Vals hold the entries of a leaf node, in (key, val) order.
	Cells, Vals []uint64
	// Children holds the child references of a non-leaf node.
	Children []NodeRef
}

// HasNext reports whether a leaf node has a successor leaf.
func (n *Node) HasNext() bool { return n.Next != invalidPage }

// ErrNotFound is returned by Delete when no matching entry exists.
var ErrNotFound = errors.New("bptree: entry not found")

// ReadNode decodes the node on page id into n (a physical page access unless
// the page is resident in the cache), straight out of the cache frame, which
// stays pinned for just the decode: no page copy, and no allocation once n's
// slices have grown to a node's fan-out. n's previous contents are
// overwritten.
func (t *Tree) ReadNode(id page.ID, n *Node) error {
	frame, err := t.store.Pin(id)
	if err != nil {
		return fmt.Errorf("bptree: read node: %w", err)
	}
	if t.tracer != nil {
		t.tracer.Event(obs.Event{Kind: obs.EvNodeRead, Src: obs.SrcIndex, Page: uint32(id)})
	}
	err = t.decodeNode(id, frame.Data(), n)
	t.store.Unpin(frame)
	return err
}

// decodeNode decodes the image buf of the node on page id into n.
func (t *Tree) decodeNode(id page.ID, buf *[page.Size]byte, n *Node) error {
	n.Leaf = buf[0]&1 != 0
	cnt := int(binary.LittleEndian.Uint16(buf[1:3]))
	n.Next = page.ID(binary.LittleEndian.Uint32(buf[3:7]))
	n.Cells, n.Vals, n.Children = n.Cells[:0], n.Vals[:0], n.Children[:0]
	if n.Leaf {
		if cnt > maxLeafCap {
			return fmt.Errorf("bptree: corrupt leaf %d: count %d", id, cnt)
		}
		for e := buf[headerSize : headerSize+cnt*leafEntrySize]; len(e) > 0; e = e[leafEntrySize:] {
			n.Cells = append(n.Cells, binary.LittleEndian.Uint64(e))
			n.Vals = append(n.Vals, binary.LittleEndian.Uint64(e[8:]))
		}
		return nil
	}
	if cnt > maxInternalCap(t.dims) {
		return fmt.Errorf("bptree: corrupt internal node %d: count %d", id, cnt)
	}
	for e := buf[headerSize : headerSize+cnt*internalEntrySize]; len(e) > 0; e = e[internalEntrySize:] {
		n.Children = append(n.Children, NodeRef{
			MinKey: binary.LittleEndian.Uint64(e),
			MinVal: binary.LittleEndian.Uint64(e[8:]),
			Page:   page.ID(binary.LittleEndian.Uint32(e[16:])),
			BoxLo:  binary.LittleEndian.Uint64(e[20:]),
			BoxHi:  binary.LittleEndian.Uint64(e[28:]),
		})
	}
	return nil
}

// node is the in-memory working form used by mutation algorithms.
type node struct {
	page        page.ID
	leaf        bool
	next        page.ID
	leafEntries []Entry // leaf only
	children    []child // internal only
}

// key returns the curve key of a stored cell word.
func (t *Tree) key(cell uint64) uint64 {
	if t.geo == nil {
		return cell
	}
	return t.geo.EncodeCell(cell)
}

// pair returns the order pair of a leaf entry.
func (t *Tree) pair(e Entry) Pair { return Pair{Key: t.key(e.Cell), Val: e.Val} }

// leafSearch returns the smallest index i of entries for which f(pair of
// entries[i]) holds (f must be monotone). It computes the key of just the
// entries its binary search probes, never of the whole leaf.
func (t *Tree) leafSearch(entries []Entry, f func(Pair) bool) int {
	return sort.Search(len(entries), func(i int) bool { return f(t.pair(entries[i])) })
}

// Walk visits every node reference top-down (parents before children),
// calling fn with the node's depth (0 = root) and reference. It reads every
// page; callers wanting a cheap summary should call it once at build time.
func (t *Tree) Walk(fn func(depth int, ref NodeRef, n *Node) error) error {
	root, ok := t.Root()
	if !ok {
		return nil
	}
	return t.walk(0, root, fn)
}

func (t *Tree) walk(depth int, ref NodeRef, fn func(int, NodeRef, *Node) error) error {
	n := &Node{}
	if err := t.ReadNode(ref.Page, n); err != nil {
		return err
	}
	if err := fn(depth, ref, n); err != nil {
		return err
	}
	if n.Leaf {
		return nil
	}
	for _, c := range n.Children {
		if err := t.walk(depth+1, c, fn); err != nil {
			return err
		}
	}
	return nil
}
