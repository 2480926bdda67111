package main

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"spbtree/internal/core"
	"spbtree/internal/dataset"
	"spbtree/internal/join"
	"spbtree/internal/metric"
	"spbtree/internal/sfc"
)

// joinTrees splits ds into halves Q and O and builds a Z-order SPB-tree over
// each in one shared mapped space, as SJA requires (Lemma 6).
func joinTrees(ds dataset.Dataset, seed int64) (tq, to *core.Tree, err error) {
	half := len(ds.Objects) / 2
	tq, err = buildSPB(dataset.Dataset{Objects: ds.Objects[:half], Distance: ds.Distance, Codec: ds.Codec},
		seed, core.Options{Curve: sfc.ZOrder})
	if err != nil {
		return nil, nil, err
	}
	to, err = buildSPB(dataset.Dataset{Objects: ds.Objects[half:], Distance: ds.Distance, Codec: ds.Codec},
		seed, core.Options{Curve: sfc.ZOrder, ShareMapping: tq})
	return tq, to, err
}

// sortedPairs reduces a join's answer to its (QID, OID) pairs in order.
func sortedPairs[P any](ps []P, ids func(P) pair) []pair {
	out := make([]pair, len(ps))
	for i, p := range ps {
		out[i] = ids(p)
	}
	slices.SortFunc(out, func(a, b pair) int {
		return cmp.Or(cmp.Compare(a.q, b.q), cmp.Compare(a.o, b.o))
	})
	return out
}

// fig17 — similarity join performance vs ε (% of d+): SPB-tree (SJA) vs
// eD-index-based join vs improved Quickjoin (QJA). As in the paper, QJA is
// in-memory so it reports no page accesses, and the eD-index must be rebuilt
// per ε (its buckets are ε-overloaded for a fixed ε₀) — its build cost is
// excluded, as the paper excludes it, but the rebuild limitation is why its
// applicability stops at small ε. At every ε the three joins must return the
// same pair list; the whole join counts as one query.
func fig17(cfg config) error {
	header(cfg.out, "Fig. 17: similarity join performance vs eps (% of d+)")
	epsPcts := []float64{2, 4, 6, 8, 10}
	for _, name := range []string{"signature", "color", "words", "dna"} {
		ds := scaledDataset(cfg, name)
		half := len(ds.Objects) / 2
		Q, O := ds.Objects[:half], ds.Objects[half:]

		fmt.Fprintf(cfg.out, "\n[%s]  |Q|=%d |O|=%d\n%-9s %6s %10s %12s %12s %10s\n",
			ds.Name, len(Q), len(O), "method", "eps%", "PA", "compdists", "time", "pairs")
		refs := make([]reference[pair], len(epsPcts))
		row := func(method string, i int, pa string, cd int64, elapsed time.Duration, pairs []pair) error {
			if err := refs[i].check(cfg, method, [][]pair{pairs}); err != nil {
				return fmt.Errorf("[%s] eps%%=%g: %w", ds.Name, epsPcts[i], err)
			}
			fmt.Fprintf(cfg.out, "%-9s %6g %10s %12d %12v %10d\n", method, epsPcts[i],
				pa, cd, elapsed.Round(time.Microsecond), len(pairs))
			return nil
		}
		spbIDs := func(p core.JoinPair) pair { return pair{p.Q.ID(), p.O.ID()} }
		joinIDs := func(p join.Pair) pair { return pair{p.A.ID(), p.B.ID()} }

		// SPB-tree SJA: both trees built once over a shared Z-order space.
		tq, to, err := joinTrees(ds, cfg.seed)
		if err != nil {
			return err
		}
		for i, ep := range epsPcts {
			eps := ep / 100 * ds.Distance.MaxDistance()
			tq.ResetStats() // cold caches, as for every other measured query
			to.ResetStats()
			start := time.Now()
			pairs, qs, err := core.Join(context.Background(), tq, to, eps)
			if err != nil {
				return err
			}
			elapsed := time.Since(start)
			if err := row("SPB-tree", i, fmt.Sprint(qs.PageAccesses()), qs.Compdists, elapsed, sortedPairs(pairs, spbIDs)); err != nil {
				return err
			}
		}

		// eD-index: rebuilt per ε (ε-overloading is baked in at build time).
		for i, ep := range epsPcts {
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
			if err := row("eD-index", i, fmt.Sprint(pa), cd, elapsed, sortedPairs(pairs, joinIDs)); err != nil {
				return err
			}
		}

		// Improved Quickjoin: in-memory, PA not applicable.
		for i, ep := range epsPcts {
			eps := ep / 100 * ds.Distance.MaxDistance()
			counter := metric.NewCounter(ds.Distance)
			qj := &join.Quickjoin{Dist: counter, Seed: cfg.seed}
			start := time.Now()
			pairs := qj.Join(Q, O, eps)
			elapsed := time.Since(start)
			if err := row("QJA", i, "-", counter.Count(), elapsed, sortedPairs(pairs, joinIDs)); err != nil {
				return err
			}
		}
	}
	return nil
}
