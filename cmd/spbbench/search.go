package main

import (
	"cmp"
	"fmt"
	"slices"

	"spbtree/internal/core"
	"spbtree/internal/dataset"
	"spbtree/internal/pivot"
	"spbtree/internal/sfc"
)

// spbVariant builds an SPB-tree over ds with opts and measures kNN with
// k=8, the query of the paper's parameter studies (Table 4, Figs. 9-11). No
// parameter changes an exact answer, so every variant's canonical (dist, ID)
// answers must equal ref's.
func spbVariant(cfg config, ds dataset.Dataset, ref *reference[hit], label string, opts core.Options) (measured, error) {
	tree, err := buildSPB(ds, cfg.seed, opts)
	if err != nil {
		return measured{}, err
	}
	m, answers, err := runKNN(spbAdapter{tree}, ds.Queries(cfg.queries), 8)
	if err != nil {
		return m, err
	}
	if err := ref.check(cfg, label, answers); err != nil {
		return m, fmt.Errorf("[%s] k=8: %w", ds.Name, err)
	}
	return m, nil
}

// table4 — SPB-tree efficiency under different SFCs (Hilbert vs Z-curve),
// kNN with k=8 on Color, Words, DNA.
func table4(cfg config) error {
	header(cfg.out, "Table 4: SPB-tree efficiency under different SFCs (kNN, k=8)")
	fmt.Fprintf(cfg.out, "%-10s %-8s %10s %12s %12s\n", "dataset", "curve", "PA", "compdists", "time")
	for _, name := range []string{"color", "words", "dna"} {
		ds := scaledDataset(cfg, name)
		var ref reference[hit]
		for _, kind := range []sfc.Kind{sfc.Hilbert, sfc.ZOrder} {
			m, err := spbVariant(cfg, ds, &ref, kind.String(), core.Options{Curve: kind})
			if err != nil {
				return err
			}
			fmt.Fprintf(cfg.out, "%-10s %-8s %10.1f %12.1f %12v\n", ds.Name, kind, m.pa, m.cd, m.t)
		}
	}
	return nil
}

// fig9 — pivot selection algorithms vs |P| ∈ {1,3,5,7,9}: compdists, PA,
// time of kNN (k=8).
func fig9(cfg config) error {
	header(cfg.out, "Fig. 9: pivot selection methods vs |P| (kNN, k=8)")
	selectors := []pivot.Selector{pivot.HFI{}, pivot.HF{}, pivot.Spacing{}, pivot.PCA{}}
	for _, name := range []string{"color", "words", "dna"} {
		ds := scaledDataset(cfg, name)
		var ref reference[hit]
		fmt.Fprintf(cfg.out, "\n[%s]\n%-9s %4s %12s %10s %12s\n", ds.Name, "method", "|P|", "compdists", "PA", "time")
		for _, sel := range selectors {
			for _, p := range []int{1, 3, 5, 7, 9} {
				label := fmt.Sprintf("%s |P|=%d", sel.Name(), p)
				m, err := spbVariant(cfg, ds, &ref, label, core.Options{NumPivots: p, Selector: sel})
				if err != nil {
					return err
				}
				fmt.Fprintf(cfg.out, "%-9s %4d %12.1f %10.1f %12v\n", sel.Name(), p, m.cd, m.pa, m.t)
			}
		}
	}
	return nil
}

// fig10 — effect of the buffer-cache size (pages) on kNN I/O and time.
func fig10(cfg config) error {
	header(cfg.out, "Fig. 10: effect of cache size (kNN, k=8)")
	for _, name := range []string{"color", "words"} {
		ds := scaledDataset(cfg, name)
		var ref reference[hit]
		fmt.Fprintf(cfg.out, "\n[%s]\n%8s %10s %12s\n", ds.Name, "cache", "PA", "time")
		for _, cache := range []int{0, 8, 16, 32, 64, 128} {
			cs := cache
			if cs == 0 {
				cs = -1 // Options: negative disables, 0 means default
			}
			m, err := spbVariant(cfg, ds, &ref, fmt.Sprintf("cache=%d", cache), core.Options{CacheSize: cs})
			if err != nil {
				return err
			}
			fmt.Fprintf(cfg.out, "%8d %10.1f %12v\n", cache, m.pa, m.t)
		}
	}
	return nil
}

// fig11 — effect of the δ-approximation granularity on Color and Synthetic
// (the two real-valued metrics).
func fig11(cfg config) error {
	header(cfg.out, "Fig. 11: effect of delta (kNN, k=8)")
	for _, name := range []string{"color", "synthetic"} {
		ds := scaledDataset(cfg, name)
		var ref reference[hit]
		fmt.Fprintf(cfg.out, "\n[%s]\n%8s %12s %10s %12s\n", ds.Name, "delta", "compdists", "PA", "time")
		for _, delta := range []float64{0.001, 0.003, 0.005, 0.007, 0.009} {
			m, err := spbVariant(cfg, ds, &ref, fmt.Sprintf("delta=%g", delta), core.Options{DeltaFrac: delta})
			if err != nil {
				return err
			}
			fmt.Fprintf(cfg.out, "%8.3f %12.1f %10.1f %12v\n", delta, m.cd, m.pa, m.t)
		}
	}
	return nil
}

// fig12 — range query performance vs r (% of d+) across all five MAMs. The
// methods must return the same ID sets: the SPB-tree reports an answer that
// Lemma 2 included at its upper bound, not its distance.
func fig12(cfg config) error {
	header(cfg.out, "Fig. 12: range query performance vs r (% of d+)")
	return sweepMAMs(cfg, []string{"signature", "color", "words", "dna"},
		[]float64{2, 4, 6, 8, 16, 32, 64}, "r%",
		func(idx searchIndex, ds dataset.Dataset, x float64) (measured, [][]hit, error) {
			r := x / 100 * ds.Distance.MaxDistance()
			m, answers, err := runRange(idx, ds.Queries(cfg.queries), r)
			for _, a := range answers {
				for i := range a {
					a[i].dist = 0
				}
				slices.SortFunc(a, func(x, y hit) int { return cmp.Compare(x.id, y.id) })
			}
			return m, answers, err
		})
}

// fig13 — kNN query performance vs k across all five MAMs. The methods must
// return the same ascending distance lists: discrete metrics tie at the k-th
// distance, and the baselines do not break ties by ID.
func fig13(cfg config) error {
	header(cfg.out, "Fig. 13: kNN query performance vs k")
	return sweepMAMs(cfg, []string{"signature", "color", "words", "dna"},
		[]float64{1, 2, 4, 8, 16, 32}, "k",
		func(idx searchIndex, ds dataset.Dataset, x float64) (measured, [][]hit, error) {
			m, answers, err := runKNN(idx, ds.Queries(cfg.queries), int(x))
			for _, a := range answers {
				for i := range a {
					a[i].id = 0
				}
			}
			return m, answers, err
		})
}

// sweepMAMs runs one sweep per dataset per competitor. run returns each
// query's answers in the form the methods must agree on; at every x, each
// method's must equal the first method's.
func sweepMAMs(cfg config, datasets []string, xs []float64, xName string,
	run func(searchIndex, dataset.Dataset, float64) (measured, [][]hit, error)) error {
	for _, name := range datasets {
		ds := scaledDataset(cfg, name)
		refs := make([]reference[hit], len(xs))
		fmt.Fprintf(cfg.out, "\n[%s]\n%-11s %6s %10s %12s %12s\n", ds.Name, "MAM", xName, "PA", "compdists", "time")
		for _, mam := range mamNames {
			br, err := buildMAM(mam, ds, cfg.seed)
			if err != nil {
				return err
			}
			for i, x := range xs {
				m, answers, err := run(br.idx, ds, x)
				if err != nil {
					return err
				}
				if err := refs[i].check(cfg, mam, answers); err != nil {
					return fmt.Errorf("[%s] %s=%g: %w", ds.Name, xName, x, err)
				}
				fmt.Fprintf(cfg.out, "%-11s %6g %10.1f %12.1f %12v\n", mam, x, m.pa, m.cd, m.t)
			}
		}
	}
	return nil
}

// fig14 — scalability of SPB-tree similarity search vs cardinality
// (Synthetic; the paper's 200K-1000K scaled to the harness -n).
func fig14(cfg config) error {
	header(cfg.out, "Fig. 14: scalability vs cardinality (Synthetic)")
	fmt.Fprintf(cfg.out, "%8s %-6s %10s %12s %12s\n", "n", "query", "PA", "compdists", "time")
	for _, frac := range []int{1, 2, 3, 4, 5} {
		n := cfg.n * frac / 5 * 2 // up to 2× the base cardinality
		if n < 100 {
			n = 100
		}
		ds := dataset.Synthetic(n, cfg.seed)
		tree, err := buildSPB(ds, cfg.seed, core.Options{})
		if err != nil {
			return err
		}
		r := 0.08 * ds.Distance.MaxDistance()
		mr, _, err := runRange(spbAdapter{tree}, ds.Queries(cfg.queries), r)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.out, "%8d %-6s %10.1f %12.1f %12v\n", n, "range", mr.pa, mr.cd, mr.t)
		mk, _, err := runKNN(spbAdapter{tree}, ds.Queries(cfg.queries), 8)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.out, "%8d %-6s %10.1f %12.1f %12v\n", n, "kNN", mk.pa, mk.cd, mk.t)
	}
	return nil
}
