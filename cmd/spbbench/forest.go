package main

import (
	"fmt"
	"time"

	"spbtree/internal/core"
	"spbtree/internal/forest"
)

// forestExp — the distributed extension's scaling profile: kNN latency and
// cluster-wide work as the shard count grows (at fixed total cardinality).
// Sharding changes no answer, so every shard count's canonical kNN answers
// must equal the single tree's. Not a paper experiment; it quantifies the
// "extend to distributed environments" future-work direction.
func forestExp(cfg config) error {
	header(cfg.out, "Forest: shard-count scaling (extension, not in the paper)")
	ds := scaledDataset(cfg, "synthetic")
	queries := ds.Queries(cfg.queries)
	fmt.Fprintf(cfg.out, "%7s %14s %12s %14s\n", "shards", "kNN latency", "total PA", "total dists")
	var ref reference[hit]
	for _, shards := range []int{1, 2, 4, 8} {
		f, err := forest.Build(ds.Objects, forest.Options{
			Tree:   core.Options{Distance: ds.Distance, Codec: ds.Codec, Seed: cfg.seed},
			Shards: shards,
		})
		if err != nil {
			return err
		}
		var elapsed time.Duration
		var pa, cd int64
		answers := make([][]hit, len(queries))
		for i, q := range queries {
			f.ResetStats()
			start := time.Now()
			res, err := f.KNN(q, 8)
			if err != nil {
				return err
			}
			elapsed += time.Since(start)
			answers[i] = spbHits(res)
			st := f.TakeStats()
			pa += st.PageAccesses
			cd += st.DistanceComputations
		}
		if err := ref.check(cfg, fmt.Sprintf("shards=%d", shards), answers); err != nil {
			return fmt.Errorf("[%s] k=8: %w", ds.Name, err)
		}
		n := int64(len(queries))
		fmt.Fprintf(cfg.out, "%7d %14v %12.1f %14.1f\n", shards,
			(elapsed / time.Duration(n)).Round(time.Microsecond),
			float64(pa)/float64(n), float64(cd)/float64(n))
	}
	return nil
}
