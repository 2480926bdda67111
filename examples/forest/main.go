// Command forest demonstrates the distributed extension (the paper's
// future-work direction): a hash-partitioned SPB-tree forest whose shards
// share one pivot mapping and answer queries in parallel, plus a
// shuffle-free distributed similarity join.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"spbtree"
)

func main() {
	const n, dim = 40000, 8
	rng := rand.New(rand.NewSource(3))
	objs := make([]spbtree.Object, n)
	for i := range objs {
		coords := make([]float64, dim)
		for j := range coords {
			coords[j] = rng.Float64()
		}
		objs[i] = spbtree.NewVector(uint64(i), coords)
	}
	dist := spbtree.L2(dim)

	f, err := spbtree.BuildForest(objs, spbtree.ForestOptions{
		Tree:   spbtree.Options{Distance: dist, Codec: spbtree.VectorCodec{Dim: dim}, Curve: spbtree.ZOrder},
		Shards: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("forest: %d objects across %d shards\n\n", f.Len(), len(f.Shards()))

	// Scatter-gather kNN.
	q := objs[42]
	f.ResetStats()
	start := time.Now()
	nn, err := f.KNN(q, 10)
	if err != nil {
		log.Fatal(err)
	}
	st := f.TakeStats()
	fmt.Printf("10-NN via 8 parallel shards: %v (cluster-wide PA=%d, compdists=%d)\n",
		time.Since(start).Round(time.Microsecond), st.PageAccesses, st.DistanceComputations)
	for _, r := range nn[:3] {
		fmt.Printf("  id %5d  d=%.4f\n", r.Object.ID(), r.Dist)
	}

	// Distributed similarity join: a second forest over fresh data shares
	// the first's pivot mapping, so shard pairs join independently.
	probes := make([]spbtree.Object, 4000)
	for i := range probes {
		coords := make([]float64, dim)
		for j := range coords {
			coords[j] = rng.Float64()
		}
		probes[i] = spbtree.NewVector(uint64(1_000_000+i), coords)
	}
	fp, err := f.BuildPartner(probes, spbtree.ForestOptions{
		Tree: spbtree.Options{Distance: dist, Codec: spbtree.VectorCodec{Dim: dim}},
	})
	if err != nil {
		log.Fatal(err)
	}
	eps := 0.06 * dist.MaxDistance()
	pairs, stats, err := spbtree.JoinForests(context.Background(), fp, f, eps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSJ(probes, base, ε=%.3f): %d pairs via %d parallel shard joins in %v (compdists=%d)\n",
		eps, len(pairs), len(fp.Shards())*len(f.Shards()), stats.Elapsed.Round(time.Millisecond), stats.Compdists)
}
