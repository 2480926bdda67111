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
// seed returns exactly the KNN prefix within the seed — on continuous and
// discrete metrics.
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
		tree, err := Build(c.objs, Options{
			Distance: c.dist, Codec: c.codec, NumPivots: 3, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
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
			sameResults(t, c.name+"/seed=inf", exact, inf)

			atKth, _, err := tree.Query(context.Background(), Query{Op: OpKNN, Q: q, K: k, Bounded: true, Bound: kth})
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, c.name+"/seed=kth", exact, atKth)

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
			sameResults(t, c.name+"/seed=tight", want, got)
		}
		tree.Close()
	}
}

// TestKNNCanonicalAcrossStrategies pins the §15.1 canonicalization: on a
// discrete metric riddled with distance ties, exact kNN — which visits
// leaves in MIND order and verifies each whole — returns the brute-force
// (dist, ID) top-k, whatever order it meets the tied candidates in. It is the
// property the forest's staged scatter is built on.
func TestKNNCanonicalAcrossStrategies(t *testing.T) {
	objs := wordSet(1500, 63)
	dist := metric.EditDistance{MaxLen: 24}
	tree, err := Build(objs, Options{
		Distance: dist, Codec: metric.StrCodec{}, NumPivots: 3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	for qi := 0; qi < 8; qi++ {
		q := objs[qi*11]
		want := bfSorted(objs, q, math.Inf(1), dist)[:10]
		res, _, err := tree.Query(context.Background(), Query{Op: OpKNN, Q: q, K: 10})
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, OpKNN, want, res)
	}
}

// TestKNNReadsEachRunOnce guards exact kNN's I/O: the search verifies a leaf
// whole when it reaches it (Table 5), so a query reads each data page of a
// leaf once. On a Color32 index of 100 000 objects, a hundred times its
// 32-page cache, eight held-out exact 10-NN queries run from flushed caches.
// Their answers and distance counts must be those the leaf rule gave when it
// was an option beside entry-by-entry best-first search (recorded below with
// that commit's data page accesses for both), and each query's data page
// accesses must be at most what the leaf rule made then, and at most a third
// of what best-first search made before it copied leaf runs.
//
// Query 0 is held to its measured 125 accesses, the figure of the run copy
// that replaced best-first re-reads: its leaves span 118 distinct data
// pages, which is already a third of its 354 before, and the leaf rule
// makes 119.
func TestKNNReadsEachRunOnce(t *testing.T) {
	const n, k = 100000, 10
	before := []struct {
		hash      uint64
		compdists int64
		dataPA    int64 // the leaf rule's
		bestFirst int64 // best-first search's before the run copy
		pinned    int64 // a query that misses the third: its pin
	}{
		{0xd2a7ef14f52bd767, 3878, 119, 354, 125},
		{0x3ae46f19f96a3e49, 7999, 173, 1209, 0},
		{0xe921c0ef54ef21b4, 7434, 156, 880, 0},
		{0x9933210bc07273db, 7964, 171, 1037, 0},
		{0x84e17b2a0927df89, 8019, 185, 1513, 0},
		{0x9dc70f74f20c306e, 7327, 200, 991, 0},
		{0x9b95cccb626ae299, 5307, 164, 849, 0},
		{0xe6dd353691cbda16, 7946, 169, 1317, 0},
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
	for i, want := range before {
		tree.idxCache.Flush()
		tree.dataCache.Flush()
		res, qs, err := tree.Query(context.Background(), Query{Op: OpKNN, Q: ds.Objects[n+i], K: k})
		if err != nil {
			t.Fatal(err)
		}
		var got golden
		got.add(res, QueryStats{}, nil)
		t.Logf("query %d: %d data page accesses, %d recorded, %d best-first", i, qs.DataPA, want.dataPA, want.bestFirst)
		if got.Hash != want.hash || qs.Compdists != want.compdists {
			t.Errorf("query %d: answer hash %#x and %d compdists, want %#x and %d", i, got.Hash, qs.Compdists, want.hash, want.compdists)
		}
		if qs.DataPA > want.dataPA {
			t.Errorf("query %d: %d data page accesses, more than the recorded %d", i, qs.DataPA, want.dataPA)
		}
		switch {
		case want.pinned > 0:
			if qs.DataPA > want.pinned {
				t.Errorf("query %d: %d data page accesses, more than its %d", i, qs.DataPA, want.pinned)
			}
		case 3*qs.DataPA > want.bestFirst:
			t.Errorf("query %d: %d data page accesses, more than a third of best-first's %d", i, qs.DataPA, want.bestFirst)
		}
	}
}
