package main

import (
	"context"
	"fmt"

	"spbtree/internal/core"
)

// ablation — design-choice ablations beyond the paper's own parameter
// studies: Lemma 2's computation-free inclusion, Algorithm 1's computeSFC
// merge step, and the approximate-kNN budget/recall trade-off.
func ablation(cfg config) error {
	header(cfg.out, "Ablations: Lemma 2, computeSFC merge, approximate kNN")

	// Lemma 2 and the merge step matter most for range queries on discrete
	// metrics (cells are exact distances there).
	for _, name := range []string{"words", "signature"} {
		ds := scaledDataset(cfg, name)
		fmt.Fprintf(cfg.out, "\n[%s] range queries\n%-28s %5s %10s %12s %12s\n",
			ds.Name, "variant", "r%", "PA", "compdists", "time")
		variants := []struct {
			label string
			opts  core.Options
		}{
			{"full (paper)", core.Options{}},
			{"without Lemma 2", core.Options{DisableLemma2: true}},
			{"without computeSFC merge", core.Options{DisableSFCMerge: true}},
			{"without both", core.Options{DisableLemma2: true, DisableSFCMerge: true}},
		}
		for _, v := range variants {
			tree, err := buildSPB(ds, cfg.seed, v.opts)
			if err != nil {
				return err
			}
			// Lemma 2 fires when a pivot ball of radius r−d(q,p) is
			// non-empty, so its savings grow with the radius.
			for _, rp := range []float64{8, 32, 64} {
				r := rp / 100 * ds.Distance.MaxDistance()
				m, err := runRange(spbAdapter{tree}, ds.Queries(cfg.queries), r)
				if err != nil {
					return err
				}
				fmt.Fprintf(cfg.out, "%-28s %5g %10.1f %12.1f %12v\n", v.label, rp, m.pa, m.cd, m.t)
			}
		}
	}

	// Approximate kNN: recall vs verification budget.
	ds := scaledDataset(cfg, "color")
	tree, err := buildSPB(ds, cfg.seed, core.Options{})
	if err != nil {
		return err
	}
	const k = 10
	queries := ds.Queries(cfg.queries)
	fmt.Fprintf(cfg.out, "\n[%s] approximate kNN, k=%d\n%10s %8s %12s\n", ds.Name, k, "budget", "recall", "compdists")
	for _, budget := range []int{0, k, 2 * k, 5 * k, 20 * k} {
		var hits, total int
		var cd float64
		for _, q := range queries {
			exact, err := tree.KNN(q, k)
			if err != nil {
				return err
			}
			ids := map[uint64]bool{}
			for _, r := range exact {
				ids[r.Object.ID()] = true
			}
			tree.ResetStats()
			approx, _, err := tree.Query(context.Background(), core.Query{Op: core.OpKNNApprox, Q: q, K: k, MaxVerify: budget})
			if err != nil {
				return err
			}
			cd += float64(tree.TakeStats().DistanceComputations)
			for _, r := range approx {
				if ids[r.Object.ID()] {
					hits++
				}
			}
			total += len(exact)
		}
		label := fmt.Sprintf("%d", budget)
		if budget == 0 {
			label = "exact"
		}
		fmt.Fprintf(cfg.out, "%10s %7.1f%% %12.1f\n", label,
			100*float64(hits)/float64(total), cd/float64(len(queries)))
	}
	return nil
}
