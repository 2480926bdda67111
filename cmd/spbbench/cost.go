package main

import (
	"context"
	"fmt"
	"math"

	"spbtree/internal/core"
)

// accuracy is the paper's metric: 1 − |actual − estimated| / actual.
func accuracy(actual, estimated float64) float64 {
	if actual == 0 {
		return 0
	}
	return 1 - math.Abs(actual-estimated)/actual
}

// fig15 — range query cost model vs r: actual, estimated, accuracy for both
// PA and compdists.
func fig15(cfg config) error {
	header(cfg.out, "Fig. 15: range query cost model vs r (% of d+)")
	for _, name := range []string{"color", "words"} {
		ds := scaledDataset(cfg, name)
		tree, err := buildSPB(ds, cfg.seed, core.Options{})
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.out, "\n[%s]\n%5s %10s %10s %7s %10s %10s %7s\n",
			ds.Name, "r%", "actCD", "estCD", "accCD", "actPA", "estPA", "accPA")
		for _, rp := range []float64{2, 4, 6, 8, 16} {
			r := rp / 100 * ds.Distance.MaxDistance()
			var actCD, actPA, estCD, estPA float64
			queries := ds.Queries(cfg.queries)
			for _, q := range queries {
				est, err := tree.EstimateRange(q, r)
				if err != nil {
					return err
				}
				estCD += est.EDC
				estPA += est.EPA
				tree.ResetStats()
				if _, err := tree.RangeQuery(q, r); err != nil {
					return err
				}
				s := tree.TakeStats()
				actCD += float64(s.DistanceComputations)
				actPA += float64(s.PageAccesses)
			}
			n := float64(len(queries))
			actCD, actPA, estCD, estPA = actCD/n, actPA/n, estCD/n, estPA/n
			fmt.Fprintf(cfg.out, "%5g %10.1f %10.1f %6.0f%% %10.1f %10.1f %6.0f%%\n",
				rp, actCD, estCD, 100*accuracy(actCD, estCD), actPA, estPA, 100*accuracy(actPA, estPA))
		}
	}
	return nil
}

// fig16 — kNN query cost model vs k.
func fig16(cfg config) error {
	header(cfg.out, "Fig. 16: kNN query cost model vs k")
	for _, name := range []string{"color", "words"} {
		ds := scaledDataset(cfg, name)
		tree, err := buildSPB(ds, cfg.seed, core.Options{})
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.out, "\n[%s]\n%5s %10s %10s %7s %10s %10s %7s\n",
			ds.Name, "k", "actCD", "estCD", "accCD", "actPA", "estPA", "accPA")
		for _, k := range []int{1, 2, 4, 8, 16, 32} {
			var actCD, actPA, estCD, estPA float64
			queries := ds.Queries(cfg.queries)
			for _, q := range queries {
				est, err := tree.EstimateKNN(q, k)
				if err != nil {
					return err
				}
				estCD += est.EDC
				estPA += est.EPA
				tree.ResetStats()
				if _, err := tree.KNN(q, k); err != nil {
					return err
				}
				s := tree.TakeStats()
				actCD += float64(s.DistanceComputations)
				actPA += float64(s.PageAccesses)
			}
			n := float64(len(queries))
			actCD, actPA, estCD, estPA = actCD/n, actPA/n, estCD/n, estPA/n
			fmt.Fprintf(cfg.out, "%5d %10.1f %10.1f %6.0f%% %10.1f %10.1f %6.0f%%\n",
				k, actCD, estCD, 100*accuracy(actCD, estCD), actPA, estPA, 100*accuracy(actPA, estPA))
		}
	}
	return nil
}

// fig18 — similarity join cost model vs ε.
func fig18(cfg config) error {
	header(cfg.out, "Fig. 18: similarity join cost model vs eps (% of d+)")
	for _, name := range []string{"color", "signature"} {
		ds := scaledDataset(cfg, name)
		half := len(ds.Objects) / 2
		Q, O := ds.Objects[:half], ds.Objects[half:]
		opts := zorderOpts()
		opts.Distance = ds.Distance
		opts.Codec = ds.Codec
		opts.Seed = cfg.seed
		tq, err := core.Build(Q, opts)
		if err != nil {
			return err
		}
		oOpts := zorderOpts()
		oOpts.Distance = ds.Distance
		oOpts.Codec = ds.Codec
		oOpts.ShareMapping = tq
		to, err := core.Build(O, oOpts)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.out, "\n[%s]\n%5s %12s %12s %7s %10s %10s %7s\n",
			ds.Name, "eps%", "actCD", "estCD", "accCD", "actPA", "estPA", "accPA")
		for _, ep := range []float64{2, 4, 6, 8, 10} {
			eps := ep / 100 * ds.Distance.MaxDistance()
			est, err := core.EstimateJoin(tq, to, eps)
			if err != nil {
				return err
			}
			_, qs, err := core.Join(context.Background(), tq, to, eps)
			if err != nil {
				return err
			}
			actCD := float64(qs.Compdists)
			actPA := float64(qs.PageAccesses())
			fmt.Fprintf(cfg.out, "%5g %12.1f %12.1f %6.0f%% %10.1f %10.1f %6.0f%%\n",
				ep, actCD, est.EDC, 100*accuracy(actCD, est.EDC), actPA, est.EPA, 100*accuracy(actPA, est.EPA))
		}
	}
	return nil
}
