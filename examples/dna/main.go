// Command dna models the paper's computational-biology motivation: finding
// similar DNA reads under the tri-gram profile (angular) distance. It also
// demonstrates the greedy kNN traversal, which the paper selects for DNA
// because its low mapping precision makes the incremental strategy touch
// many RAF pages more than once (Table 5).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"spbtree"
)

const bases = "ACGT"

func main() {
	const n = 5000
	rng := rand.New(rand.NewSource(11))

	// Reads are mutated copies of a set of gene-family seeds.
	seeds := make([]string, 40)
	for i := range seeds {
		b := make([]byte, 108)
		for j := range b {
			b[j] = bases[rng.Intn(4)]
		}
		seeds[i] = string(b)
	}
	objs := make([]spbtree.Object, n)
	family := make([]int, n)
	for i := range objs {
		f := rng.Intn(len(seeds))
		family[i] = f
		objs[i] = spbtree.NewSeq(uint64(i), mutate(seeds[f], rng, 6))
	}

	tree, err := spbtree.Build(objs, spbtree.Options{
		Distance: spbtree.TrigramAngular{},
		Codec:    spbtree.SeqCodec{},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d reads from %d families (%d pivots)\n\n", n, len(seeds), len(tree.Pivots()))

	// For a fresh read from a known family, the nearest indexed reads
	// should come from the same family.
	queryFamily := 3
	q := spbtree.NewSeq(99999, mutate(seeds[queryFamily], rng, 6))
	st, err := tree.Measure(func() error {
		nn, err := tree.KNN(q, 10)
		if err != nil {
			return err
		}
		same := 0
		for _, r := range nn {
			if family[r.Object.ID()] == queryFamily {
				same++
			}
		}
		fmt.Printf("10-NN of a family-%d read: %d/10 neighbors from the same family\n",
			queryFamily, same)
		for _, r := range nn[:3] {
			fmt.Printf("  read %5d  family %2d  d=%.4f\n", r.Object.ID(), family[r.Object.ID()], r.Dist)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n10-NN: PA=%d compdists=%d time=%s\n",
		st.PageAccesses, st.DistanceComputations, st.Elapsed.Round(1000))
}

func mutate(s string, rng *rand.Rand, edits int) string {
	b := []byte(s)
	for m := rng.Intn(edits + 1); m > 0; m-- {
		switch rng.Intn(4) {
		case 0:
			p := rng.Intn(len(b) + 1)
			b = append(b[:p], append([]byte{bases[rng.Intn(4)]}, b[p:]...)...)
		case 1:
			if len(b) > 10 {
				p := rng.Intn(len(b))
				b = append(b[:p], b[p+1:]...)
			}
		default:
			b[rng.Intn(len(b))] = bases[rng.Intn(4)]
		}
	}
	return string(b)
}
