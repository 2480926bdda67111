package core

import (
	"context"
	"sync/atomic"
	"testing"

	"spbtree/internal/bptree"
	"spbtree/internal/metric"
	"spbtree/internal/sfc"
)

// countingCurve counts every mapping a tree makes from grid points and cell
// words to curve keys, through the tree and through its B+-tree. (A curve
// has no decode: nothing maps a key back to its point.)
type countingCurve struct {
	sfc.Curve
	encodes atomic.Int64
}

func (c *countingCurve) Encode(p sfc.Point) uint64 {
	c.encodes.Add(1)
	return c.Curve.Encode(p)
}

func (c *countingCurve) EncodeCell(cell uint64) uint64 {
	c.encodes.Add(1)
	return c.Curve.EncodeCell(cell)
}

// countCurve routes every curve call of tree, its B+-tree's included,
// through a counting shim.
func countCurve(t *testing.T, tree *Tree) *countingCurve {
	t.Helper()
	tree.mu.Lock()
	defer tree.mu.Unlock()
	cc := &countingCurve{Curve: tree.curve}
	bpt, err := bptree.Open(tree.idxCache, bptree.Options{Geometry: cc}, tree.bpt.Meta())
	if err != nil {
		t.Fatal(err)
	}
	tree.curve, tree.bpt = cc, bpt
	return cc
}

// TestQueryPathRunsNoCurve requires exact kNN (plain and bounded), range
// queries through both leaf cases Algorithm 1 takes (contained and
// region-checked), and budgeted kNN to
// filter on the stored cells without one curve encode, on both curves and
// on a durable tree whose write buffer holds inserts and tombstones. The
// graph's seed probe is the one query that orders by key: it encodes the
// query's cell once and the entries its Seek probes, not a leaf.
func TestQueryPathRunsNoCurve(t *testing.T) {
	objs := vectorSet(3000, 5, 91)
	base, extra := objs[:2700], objs[2700:]
	for _, kind := range []sfc.Kind{sfc.Hilbert, sfc.ZOrder} {
		t.Run(kind.String(), func(t *testing.T) {
			tree, err := CreateDurable(t.TempDir(), base, Options{
				Distance: metric.L2(5), Codec: metric.VectorCodec{Dim: 5}, Seed: 7, Curve: kind,
			}, DurableOptions{CompactThreshold: -1, NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer tree.Close()
			if err := tree.BuildGraph(GraphOptions{Seed: 3}); err != nil {
				t.Fatal(err)
			}
			for _, o := range extra {
				if err := tree.Insert(o); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 600; i += 3 {
				if err := tree.Delete(base[i]); err != nil {
					t.Fatal(err)
				}
			}
			buffered := int64(len(extra))
			cc := countCurve(t, tree)

			var contained, checked bool
			for _, q := range objs[2650:2750] {
				for _, qr := range []Query{
					{Op: OpKNN, Q: q, K: 10},
					{Op: OpKNN, Q: q, K: 10, Bounded: true, Bound: 0.2},
					{Op: OpRange, Q: q, Radius: 0.02},
					{Op: OpRange, Q: q, Radius: 0.1},
					{Op: OpRange, Q: q, Radius: 0.3},
					{Op: OpRange, Q: q, Radius: allRadius},
				} {
					res, qs, err := tree.Query(context.Background(), qr)
					if err != nil {
						t.Fatalf("%s: %v", qr.Op, err)
					}
					if qr.Op != OpRange {
						continue
					}
					if qr.Radius == allRadius {
						// The region covers the root box: every leaf is contained.
						contained = qs.EntriesPruned == 0 && len(res) == tree.Len()
					}
					// Beyond the buffered inserts' region tests, a prune is a
					// leaf scanned with the region test.
					if qs.EntriesPruned > buffered {
						checked = true
					}
				}
				if n := cc.encodes.Load(); n != 0 {
					t.Fatalf("queries made %d encodes, want none", n)
				}
			}
			if !contained || !checked {
				t.Fatalf("leaf cases: contained %v, region-checked %v", contained, checked)
			}

			for _, q := range objs[2650:2670] {
				before := cc.encodes.Load()
				if _, _, err := tree.Query(context.Background(), Query{Op: OpKNNGraph, Q: q, K: 10}); err != nil {
					t.Fatal(err)
				}
				if n := cc.encodes.Load() - before; n > 10 {
					t.Fatalf("graph query made %d encodes, want the query's and at most 9 of its seek", n)
				}
			}
		})
	}
}
