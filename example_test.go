package spbtree_test

import (
	"context"
	"fmt"
	"sort"

	"spbtree"
)

// ExampleBuild indexes words under edit distance and runs the paper's
// running example queries (Section 4.1).
func ExampleBuild() {
	words := []string{"citrate", "defoliates", "defoliation", "defoliated", "defoliating", "defoliate"}
	objs := make([]spbtree.Object, len(words))
	for i, w := range words {
		objs[i] = spbtree.NewStr(uint64(i), w)
	}
	tree, err := spbtree.Build(objs, spbtree.Options{
		Distance:  spbtree.EditDistance{MaxLen: 16},
		Codec:     spbtree.StrCodec{},
		NumPivots: 2,
	})
	if err != nil {
		panic(err)
	}

	res, err := tree.RangeQuery(spbtree.NewStr(100, "defoliate"), 1)
	if err != nil {
		panic(err)
	}
	var out []string
	for _, r := range res {
		out = append(out, r.Object.(*spbtree.Str).S)
	}
	sort.Strings(out)
	fmt.Println("RQ(defoliate, 1):", out)

	nn, err := tree.KNN(spbtree.NewStr(100, "defoliate"), 2)
	if err != nil {
		panic(err)
	}
	names := []string{nn[0].Object.(*spbtree.Str).S, nn[1].Object.(*spbtree.Str).S}
	sort.Strings(names)
	fmt.Println("2NN(defoliate):", names)
	// Three words are at edit distance ≤ 1; the k-th slot tie between
	// "defoliates" (id 1) and "defoliated" (id 3) goes to the smaller id.
	// Output:
	// RQ(defoliate, 1): [defoliate defoliated defoliates]
	// 2NN(defoliate): [defoliate defoliates]
}

// ExampleJoin runs the paper's Definition 4 example: a similarity join of
// two word sets with edit distance 1.
func ExampleJoin() {
	mk := func(base uint64, words ...string) []spbtree.Object {
		objs := make([]spbtree.Object, len(words))
		for i, w := range words {
			objs[i] = spbtree.NewStr(base+uint64(i), w)
		}
		return objs
	}
	Q := mk(0, "defoliate", "defoliates", "defoliation")
	O := mk(100, "citrate", "defoliated", "defoliating")
	d := spbtree.EditDistance{MaxLen: 16}

	tq, err := spbtree.Build(Q, spbtree.Options{
		Distance: d, Codec: spbtree.StrCodec{}, Curve: spbtree.ZOrder, NumPivots: 2,
	})
	if err != nil {
		panic(err)
	}
	to, err := spbtree.Build(O, spbtree.Options{
		Distance: d, Codec: spbtree.StrCodec{}, Curve: spbtree.ZOrder, ShareMapping: tq,
	})
	if err != nil {
		panic(err)
	}
	pairs, _, err := spbtree.Join(context.Background(), tq, to, 1)
	if err != nil {
		panic(err)
	}
	var lines []string
	for _, p := range pairs {
		lines = append(lines, fmt.Sprintf("⟨%s, %s⟩ d=%.0f", p.Q.(*spbtree.Str).S, p.O.(*spbtree.Str).S, p.Dist))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
	// The paper's Section 5.1 example reports only the first pair; the
	// second is also within edit distance 1 (one substitution, s→d).
	// Output:
	// ⟨defoliate, defoliated⟩ d=1
	// ⟨defoliates, defoliated⟩ d=1
}

// ExampleTree_NearestIter consumes neighbors lazily in distance order.
func ExampleTree_NearestIter() {
	objs := []spbtree.Object{
		spbtree.NewVector(0, []float64{0.1, 0.1}),
		spbtree.NewVector(1, []float64{0.2, 0.1}),
		spbtree.NewVector(2, []float64{0.9, 0.9}),
		spbtree.NewVector(3, []float64{0.15, 0.1}),
	}
	tree, err := spbtree.Build(objs, spbtree.Options{
		Distance: spbtree.L2(2), Codec: spbtree.VectorCodec{Dim: 2}, NumPivots: 2,
	})
	if err != nil {
		panic(err)
	}
	it := tree.NearestIter(spbtree.NewVector(9, []float64{0.1, 0.1}))
	for i := 0; i < 3; i++ {
		r, ok := it.Next()
		if !ok {
			break
		}
		fmt.Printf("id=%d d=%.2f\n", r.Object.ID(), r.Dist)
	}
	// Output:
	// id=0 d=0.00
	// id=3 d=0.05
	// id=1 d=0.10
}
