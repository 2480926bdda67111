package bptree

import "fmt"

// BulkLoad builds the tree from entries sorted ascending by (key, val). It
// packs leaves fully (the last two leaves are balanced so no node is
// underfull) and builds upper levels bottom-up, which is the construction
// path the paper credits for the SPB-tree's low build cost. The tree must be
// empty.
//
// keys, if not nil, holds each entry's key — the order the caller sorted by
// — and BulkLoad checks the order on it instead of encoding every cell
// again; nil computes the keys from the Geometry.
func (t *Tree) BulkLoad(entries []Entry, keys []uint64) error {
	if t.root.page != invalidPage {
		return fmt.Errorf("bptree: BulkLoad on non-empty tree")
	}
	if keys != nil && len(keys) != len(entries) {
		return fmt.Errorf("bptree: BulkLoad given %d keys for %d entries", len(keys), len(entries))
	}
	var prev Pair
	for i, e := range entries {
		var p Pair
		if keys != nil {
			p = Pair{Key: keys[i], Val: e.Val}
		} else {
			p = t.pair(e)
		}
		if i > 0 && p.Less(prev) {
			return fmt.Errorf("bptree: BulkLoad input not sorted at %d", i)
		}
		prev = p
	}
	if len(entries) == 0 {
		return nil
	}

	// Partition into leaf chunks.
	chunks := chunkSizes(len(entries), t.maxLeaf, t.minLeaf())
	leaves := make([]*node, len(chunks))
	for i := range leaves {
		n, err := t.allocNode(true)
		if err != nil {
			return err
		}
		leaves[i] = n
	}
	refs := make([]child, len(chunks))
	off := 0
	for i, sz := range chunks {
		n := leaves[i]
		n.leafEntries = append(n.leafEntries, entries[off:off+sz]...)
		off += sz
		if i+1 < len(leaves) {
			n.next = leaves[i+1].page
		}
		if err := t.writeNode(n); err != nil {
			return err
		}
		refs[i] = child{page: n.page}
		t.refresh(&refs[i], n)
	}
	t.nLeaves = len(leaves)
	t.count = len(entries)
	t.height = 1

	// Build internal levels until a single root remains.
	for len(refs) > 1 {
		sizes := chunkSizes(len(refs), t.maxInternal, t.minInternal())
		next := make([]child, len(sizes))
		off := 0
		for i, sz := range sizes {
			n, err := t.allocNode(false)
			if err != nil {
				return err
			}
			n.children = append(n.children, refs[off:off+sz]...)
			off += sz
			if err := t.writeNode(n); err != nil {
				return err
			}
			next[i] = child{page: n.page}
			t.refresh(&next[i], n)
		}
		refs = next
		t.height++
	}
	t.root = refs[0]
	return nil
}

// chunkSizes splits n items into chunks of at most max items where every
// chunk except a lone single chunk has at least min items: the final two
// chunks are balanced when the remainder would fall short.
func chunkSizes(n, max, min int) []int {
	if n <= max {
		return []int{n}
	}
	full := n / max
	rem := n % max
	sizes := make([]int, 0, full+1)
	for i := 0; i < full; i++ {
		sizes = append(sizes, max)
	}
	if rem > 0 {
		if rem < min {
			// Steal from the previous full chunk to lift the tail above the
			// occupancy floor.
			steal := min - rem
			sizes[len(sizes)-1] -= steal
			rem += steal
		}
		sizes = append(sizes, rem)
	}
	return sizes
}
