package core

import (
	"context"
	"math"
	"testing"

	"spbtree/internal/dataset"
	"spbtree/internal/metric"
	"spbtree/internal/page"
)

// TestKNNWithinMatchesKNN is the §15.2 seeding property: an infinite seed is
// plain KNN, a seed at the true k-th distance is plain KNN, and a tighter
// seed returns exactly the KNN prefix within the seed — for both traversal
// strategies, continuous and discrete metrics.
func TestKNNWithinMatchesKNN(t *testing.T) {
	type cfg struct {
		name  string
		objs  []metric.Object
		dist  metric.DistanceFunc
		codec metric.Codec
	}
	cfgs := []cfg{
		{"l2", vectorSet(1200, 5, 61), metric.L2(5), metric.VectorCodec{Dim: 5}},
		{"edit", wordSet(1200, 62), metric.EditDistance{MaxLen: 24}, metric.StrCodec{}},
	}
	const k = 8
	for _, c := range cfgs {
		for _, trav := range []TraversalStrategy{Incremental, Greedy} {
			tree, err := Build(c.objs, Options{
				Distance: c.dist, Codec: c.codec, NumPivots: 3, Seed: 5, Traversal: trav,
			})
			if err != nil {
				t.Fatal(err)
			}
			label := c.name + "/" + trav.String()
			for qi := 0; qi < 5; qi++ {
				q := c.objs[qi*7]
				exact, err := tree.KNN(q, k)
				if err != nil {
					t.Fatal(err)
				}
				kth := exact[len(exact)-1].Dist

				inf, _, err := tree.Query(context.Background(), Query{Op: OpKNN, Q: q, K: k, Bounded: true, Bound: math.Inf(1)})
				if err != nil {
					t.Fatal(err)
				}
				sameResults(t, label+"/seed=inf", exact, inf)

				atKth, _, err := tree.Query(context.Background(), Query{Op: OpKNN, Q: q, K: k, Bounded: true, Bound: kth})
				if err != nil {
					t.Fatal(err)
				}
				sameResults(t, label+"/seed=kth", exact, atKth)

				// A tighter seed keeps exactly the members within it.
				tight := kth * 0.6
				var want []Result
				for _, x := range exact {
					if x.Dist <= tight {
						want = append(want, x)
					}
				}
				got, _, err := tree.Query(context.Background(), Query{Op: OpKNN, Q: q, K: k, Bounded: true, Bound: tight})
				if err != nil {
					t.Fatal(err)
				}
				sameResults(t, label+"/seed=tight", want, got)
			}
			tree.Close()
		}
	}
}

// TestKNNCanonicalAcrossStrategies pins the §15.1 canonicalization: on a
// discrete metric riddled with distance ties, both traversal strategies
// return the identical (dist, ID) top-k — the brute-force one — which is the
// property the forest's staged scatter is built on.
func TestKNNCanonicalAcrossStrategies(t *testing.T) {
	objs := wordSet(1500, 63)
	dist := metric.EditDistance{MaxLen: 24}
	for _, trav := range []TraversalStrategy{Incremental, Greedy} {
		tree, err := Build(objs, Options{
			Distance: dist, Codec: metric.StrCodec{}, NumPivots: 3, Seed: 5,
			Traversal: trav,
		})
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < 8; qi++ {
			q := objs[qi*11]
			res, err := tree.KNN(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, trav.String(), bfSorted(objs, q, math.Inf(1), dist)[:10], res)
		}
		tree.Close()
	}
}

// TestKNNReadsEachRunOnce guards the best-first traversal's I/O: the first
// pop of a leaf run's unread entry copies the records the search can still
// verify from that run in one pass (DESIGN.md §9.4), so a query reads each
// data page of a leaf once instead of once per 16-pop block. On a Color32
// index of 100 000 objects, a hundred times its 32-page cache, eight held-out
// exact 10-NN queries run from flushed caches. Their answers and distance
// counts must be those of the commit before the copy (recorded below with its
// data page accesses), and each query's data page accesses must be at most a
// third of that commit's and at most 1.05 times those of the Greedy
// traversal, which reads each leaf it reaches whole (Table 5).
//
// Query 0 misses both bounds and is held to its measured 125 accesses
// instead: its leaves span 118 distinct data pages, which is already a third
// of its 354 before, and 7 of them — pages two leaves share — are read again
// after the cache evicted them. Greedy reads the same 34 nodes in another
// order, touches 115 pages, re-reads 4 and makes 119 accesses; 1.05 × 119 is
// 124.95.
func TestKNNReadsEachRunOnce(t *testing.T) {
	const n, k = 100000, 10
	before := []struct {
		hash      uint64
		compdists int64
		dataPA    int64
		miss      int64 // a query that misses the bounds: its accesses, pinned
	}{
		{0xd2a7ef14f52bd767, 3363, 354, 125},
		{0x3ae46f19f96a3e49, 7942, 1209, 0},
		{0xe921c0ef54ef21b4, 7192, 880, 0},
		{0x9933210bc07273db, 7955, 1037, 0},
		{0x84e17b2a0927df89, 7748, 1513, 0},
		{0x9dc70f74f20c306e, 6570, 991, 0},
		{0x9b95cccb626ae299, 4495, 849, 0},
		{0xe6dd353691cbda16, 7502, 1317, 0},
	}
	ds, _ := dataset.ByName("color32", n+len(before), 1)
	opts := Options{Distance: ds.Distance, Codec: ds.Codec, CacheSize: 32, Seed: 1}
	for _, st := range []*page.Store{&opts.IndexStore, &opts.DataStore} {
		fs, err := page.NewTempFileStore()
		if err != nil {
			t.Fatal(err)
		}
		*st = fs
	}
	tree, err := Build(ds.Objects[:n], opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	query := func(i int, trav TraversalStrategy) (golden, QueryStats) {
		tree.SetTraversal(trav)
		tree.idxCache.Flush()
		tree.dataCache.Flush()
		res, qs, err := tree.Query(context.Background(), Query{Op: OpKNN, Q: ds.Objects[n+i], K: k})
		if err != nil {
			t.Fatal(err)
		}
		var row golden
		row.add(res, QueryStats{}, nil)
		return row, qs
	}
	for i, want := range before {
		got, qs := query(i, Incremental)
		_, greedy := query(i, Greedy)
		t.Logf("query %d: %d data page accesses, %d before, %d for Greedy", i, qs.DataPA, want.dataPA, greedy.DataPA)
		if got.Hash != want.hash || qs.Compdists != want.compdists {
			t.Errorf("query %d: answer hash %#x and %d compdists, want %#x and %d", i, got.Hash, qs.Compdists, want.hash, want.compdists)
		}
		switch {
		case want.miss > 0:
			if qs.DataPA > want.miss {
				t.Errorf("query %d: %d data page accesses, more than its %d", i, qs.DataPA, want.miss)
			}
		case 3*qs.DataPA > want.dataPA:
			t.Errorf("query %d: %d data page accesses, more than a third of the %d before the run copy", i, qs.DataPA, want.dataPA)
		case float64(qs.DataPA) > 1.05*float64(greedy.DataPA):
			t.Errorf("query %d: %d data page accesses, more than 1.05 × Greedy's %d", i, qs.DataPA, greedy.DataPA)
		}
	}
}
