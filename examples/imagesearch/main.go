// Command imagesearch models the paper's Color workload: 16-dimensional
// image feature vectors compared under the L5-norm. It builds an SPB-tree,
// runs kNN retrieval, and shows the Section 4.4 cost models at work —
// predicting a query's page accesses and distance computations before
// running it, the way a DBMS optimizer would choose an execution strategy.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"spbtree"
)

func main() {
	const n, dim = 20000, 16
	rng := rand.New(rand.NewSource(42))

	// A mixture of "image classes": feature vectors cluster around class
	// prototypes, as real HSV histograms do.
	prototypes := make([][]float64, 24)
	for i := range prototypes {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		prototypes[i] = p
	}
	objs := make([]spbtree.Object, n)
	for i := range objs {
		proto := prototypes[rng.Intn(len(prototypes))]
		coords := make([]float64, dim)
		for j := range coords {
			coords[j] = clamp(proto[j] + 0.05*rng.NormFloat64())
		}
		objs[i] = spbtree.NewVector(uint64(i), coords)
	}

	tree, err := spbtree.Build(objs, spbtree.Options{
		Distance: spbtree.L5(dim),
		Codec:    spbtree.VectorCodec{Dim: dim},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d feature vectors: %d pivots, storage %.1f MB\n\n",
		tree.Len(), len(tree.Pivots()), float64(tree.StorageBytes())/(1<<20))

	fmt.Println("query  k  estEDC  actCD  estEPA  actPA   time")
	for qi := 0; qi < 5; qi++ {
		q := objs[rng.Intn(n)]
		const k = 8
		est, err := tree.EstimateKNN(q, k)
		if err != nil {
			log.Fatal(err)
		}
		st, err := tree.Measure(func() error {
			_, err := tree.KNN(q, k)
			return err
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%5d %2d %7.0f %6d %7.0f %6d %8s\n",
			qi, k, est.EDC, st.DistanceComputations, est.EPA, st.PageAccesses, st.Elapsed.Round(1000))
	}

}

func clamp(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
