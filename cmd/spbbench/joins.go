package main

import (
	"context"
	"fmt"
	"time"

	"spbtree/internal/core"
	"spbtree/internal/dataset"
	"spbtree/internal/join"
	"spbtree/internal/metric"
)

// fig17 — similarity join performance vs ε (% of d+): SPB-tree (SJA) vs
// eD-index-based join vs improved Quickjoin (QJA). As in the paper, QJA is
// in-memory so it reports no page accesses, and the eD-index must be rebuilt
// per ε (its buckets are ε-overloaded for a fixed ε₀) — its build cost is
// excluded, as the paper excludes it, but the rebuild limitation is why its
// applicability stops at small ε.
func fig17(cfg config) error {
	header(cfg.out, "Fig. 17: similarity join performance vs eps (% of d+)")
	epsPcts := []float64{2, 4, 6, 8, 10}
	for _, name := range []string{"signature", "color", "words", "dna"} {
		ds := scaledDataset(cfg, name)
		half := len(ds.Objects) / 2
		Q, O := ds.Objects[:half], ds.Objects[half:]

		fmt.Fprintf(cfg.out, "\n[%s]  |Q|=%d |O|=%d\n%-9s %6s %10s %12s %12s %10s\n",
			ds.Name, len(Q), len(O), "method", "eps%", "PA", "compdists", "time", "pairs")

		// SPB-tree SJA: both trees built once over a shared Z-order space.
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
		for _, ep := range epsPcts {
			eps := ep / 100 * ds.Distance.MaxDistance()
			start := time.Now()
			pairs, qs, err := core.Join(context.Background(), tq, to, eps)
			if err != nil {
				return err
			}
			elapsed := time.Since(start)
			fmt.Fprintf(cfg.out, "%-9s %6g %10d %12d %12v %10d\n", "SPB-tree", ep,
				qs.PageAccesses(), qs.Compdists, elapsed.Round(time.Microsecond), len(pairs))
		}

		// eD-index: rebuilt per ε (ε-overloading is baked in at build time).
		for _, ep := range epsPcts {
			eps := ep / 100 * ds.Distance.MaxDistance()
			ed, err := join.BuildED(Q, O, join.EDOptions{
				Distance: ds.Distance, Codec: ds.Codec, Eps0: eps, Seed: cfg.seed,
			})
			if err != nil {
				return err
			}
			ed.ResetStats()
			start := time.Now()
			pairs, err := ed.Join(eps, false)
			if err != nil {
				return err
			}
			elapsed := time.Since(start)
			pa, cd := ed.TakeStats()
			fmt.Fprintf(cfg.out, "%-9s %6g %10d %12d %12v %10d\n", "eD-index", ep,
				pa, cd, elapsed.Round(time.Microsecond), len(pairs))
		}

		// Improved Quickjoin: in-memory, PA not applicable.
		for _, ep := range epsPcts {
			eps := ep / 100 * ds.Distance.MaxDistance()
			counter := metric.NewCounter(ds.Distance)
			qj := &join.Quickjoin{Dist: counter, Seed: cfg.seed}
			start := time.Now()
			pairs := qj.Join(Q, O, eps)
			elapsed := time.Since(start)
			fmt.Fprintf(cfg.out, "%-9s %6g %10s %12d %12v %10d\n", "QJA", ep,
				"-", counter.Count(), elapsed.Round(time.Microsecond), len(pairs))
		}
	}
	return nil
}

// joinSanity cross-checks the three joins against each other on a small
// slice; the harness runs it under -q as a safety net when experimenting
// with new datasets. (Exercised by the harness tests.)
func joinSanity(ds dataset.Dataset, eps float64, seed int64) error {
	half := len(ds.Objects) / 2
	Q, O := ds.Objects[:half], ds.Objects[half:]
	opts := zorderOpts()
	opts.Distance = ds.Distance
	opts.Codec = ds.Codec
	opts.Seed = seed
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
	spb, _, err := core.Join(context.Background(), tq, to, eps)
	if err != nil {
		return err
	}
	qj := &join.Quickjoin{Dist: ds.Distance, Seed: seed}
	quick := qj.Join(Q, O, eps)
	ed, err := join.BuildED(Q, O, join.EDOptions{Distance: ds.Distance, Codec: ds.Codec, Eps0: eps, Seed: seed})
	if err != nil {
		return err
	}
	edPairs, err := ed.Join(eps, false)
	if err != nil {
		return err
	}
	if len(spb) != len(quick) || len(spb) != len(edPairs) {
		return fmt.Errorf("join disagreement: SPB=%d QJA=%d eD=%d", len(spb), len(quick), len(edPairs))
	}
	return nil
}
