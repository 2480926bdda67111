package core

import (
	"context"
	"math"
	"testing"

	"spbtree/internal/metric"
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
