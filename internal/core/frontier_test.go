package core

import (
	"math/rand"
	"testing"

	"spbtree/internal/metric"
)

// entryHeap is the per-entry frontier the runs replace: a binary min-heap
// under mindLess holding every leaf entry as an item of its own. It is the
// reference TestFrontierRunsPopOrder holds the frontier to.
type entryHeap struct {
	items []mindItem
	delta []metric.Object
}

func (h *entryHeap) Len() int { return len(h.items) }

func (h *entryHeap) push(x mindItem) {
	h.items = append(h.items, x)
	h.up(len(h.items)-1, x)
}

func (h *entryHeap) up(i int, x mindItem) {
	items := h.items
	for i > 0 {
		parent := (i - 1) / 2
		if !mindLess(x, items[parent]) {
			break
		}
		items[i] = items[parent]
		i = parent
	}
	items[i] = x
}

func (h *entryHeap) pop() mindItem {
	items := h.items
	top := items[0]
	n := len(items) - 1
	h.items = items[:n]
	if n > 0 {
		i := 0
		for c := 1; c < n; c = 2*i + 1 {
			if c+1 < n && mindLess(items[c+1], items[c]) {
				c++
			}
			items[i] = items[c]
			i = c
		}
		h.up(i, items[n])
	}
	return top
}

func (h *entryHeap) pushDelta(bound float64, obj metric.Object) {
	h.push(mindItem{mind: bound, ref: obj.ID(), tag: tagDelta | uint32(len(h.delta))<<tagKindBits})
	h.delta = append(h.delta, obj)
}

// TestFrontierRunsPopOrder feeds the same seeded item sequences to the
// frontier and to the per-entry heap, interleaving pushes and pops the way
// Algorithm 2 does — buffered inserts and the root first, then pop the
// minimum, and a popped node pushes its children or one leaf run (empty,
// single-entry or long) no closer than itself — with MINDs drawn from a few
// values, so that they tie within runs, across runs, with nodes and with
// inserts. Both must pop identical sequences.
func TestFrontierRunsPopOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 400; trial++ {
		var f frontier
		var ref entryHeap
		levels := 1 + rng.Intn(12)
		mind := func(floor float64) float64 { return floor + float64(rng.Intn(levels)) }
		var page, off uint64
		pushNode := func(floor float64) {
			page++
			x := mindItem{mind: mind(floor), ref: page, tag: tagNode}
			f.push(x)
			ref.push(x)
		}
		pushRun := func(floor float64) {
			var n int
			switch rng.Intn(4) {
			case 0:
				n = 0
			case 1:
				n = 1
			case 2:
				n = rng.Intn(40)
			default:
				n = rng.Intn(300) // a full leaf
			}
			start := len(f.runs)
			for j := 0; j < n; j++ {
				off += 1 + uint64(rng.Intn(3))
				m := mind(floor)
				f.runs = append(f.runs, runEntry{mind: m, ref: off})
				ref.push(mindItem{mind: m, ref: off, tag: tagEntry})
			}
			f.pushRun(start)
		}
		var id uint64 // buffered inserts have distinct IDs, as in the write buffer
		for j := rng.Intn(6); j > 0; j-- {
			id += 1 + uint64(rng.Intn(20))
			obj := metric.NewStr(id, "")
			m := mind(0)
			f.pushDelta(m, obj)
			ref.pushDelta(m, obj)
		}
		pushNode(0)
		var pops int
		for f.Len() > 0 || ref.Len() > 0 {
			if f.Len() == 0 || ref.Len() == 0 {
				t.Fatalf("trial %d pop %d: frontier has %d items, reference %d", trial, pops, f.Len(), ref.Len())
			}
			if f.items[0].mind != ref.items[0].mind || f.peekIsNode() != ref.items[0].isNode() {
				t.Fatalf("trial %d pop %d: peek (%v, node %v), reference (%v, node %v)",
					trial, pops, f.items[0].mind, f.peekIsNode(), ref.items[0].mind, ref.items[0].isNode())
			}
			got, want := f.pop(), ref.pop()
			pops++
			if got.mind != want.mind || got.tag&tagKind != want.tag&tagKind || got.ref != want.ref {
				t.Fatalf("trial %d pop %d: got (%v, kind %d, ref %d), reference (%v, kind %d, ref %d)",
					trial, pops, got.mind, got.tag&tagKind, got.ref, want.mind, want.tag&tagKind, want.ref)
			}
			if !got.isNode() {
				// The pop sequence is the (MIND, offset) pairs compared
				// above; a buffered insert must also bring its own object.
				if got.tag&tagKind == tagDelta && f.delta[got.tag>>tagKindBits] != ref.delta[want.tag>>tagKindBits] {
					t.Fatalf("trial %d pop %d: insert %v, reference %v", trial, pops, f.delta[got.tag>>tagKindBits], ref.delta[want.tag>>tagKindBits])
				}
				continue
			}
			// A node: an internal one pushes children, a leaf one run, each
			// no closer than the node itself; the tree stops growing after a
			// few hundred pops.
			if pops > 300 {
				continue
			}
			if rng.Intn(3) == 0 {
				for j := rng.Intn(4); j >= 0; j-- {
					pushNode(got.mind)
				}
			} else {
				pushRun(got.mind)
			}
		}
		f.reset()
		if f.Len() != 0 || len(f.runs) != 0 || len(f.delta) != 0 {
			t.Fatalf("trial %d: reset left %d items, %d run entries, %d inserts", trial, f.Len(), len(f.runs), len(f.delta))
		}
	}
}
