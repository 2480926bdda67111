package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"

	"spbtree/internal/core"
	"spbtree/internal/metric"
	"spbtree/internal/recall"
)

// pr9 benchmarks the approximate graph tier (DESIGN.md §14) against exact
// kNN on Words, Color, Color32 and DNAEdit. Per dataset it builds one tree,
// measures exact kNN (k=10) as the latency and recall baseline, constructs
// the NN-descent graph, and sweeps the beam width ef over 16/32/64/128
// measuring recall@10 (via the shared recall helper, against the exact
// answer computed once per query set) and per-query latency. Two recall
// figures are reported: ID recall (recall.AtK) and tie-aware recall
// (recall.WithinKth) — under discrete metrics like edit distance many
// objects tie at the true k-th distance and exact kNN breaks those ties by
// ID, so an equally near answer can score low on ID recall; the tie-aware
// column judges distances only.
//
// Two machine-independent invariants gate the run — the CI contract:
//
//   - building a graph perturbs nothing on the exact path: the exact kNN
//     pass repeated after BuildGraph reproduces the pre-graph result hash
//     (FNV-1a over every (id, distance-bits) pair, in order) exactly,
//   - at the default beam width (ef=64) the graph's mean recall@10 on Color
//     is at least 0.90.
//
// The headline number is the speedup column: exact wall time over graph
// wall time at each ef, which the committed BENCH_PR9.json records at the
// PR's reference cardinality.
//
// With -json FILE it writes the machine-readable BENCH_PR9.json report.
func pr9(cfg config) error {
	header(cfg.out, "PR9: approximate graph tier (NN-descent + beam search) vs exact kNN")
	const k = 10
	report := pr9Report{
		N: cfg.n, Queries: cfg.queries, K: k,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	fmt.Fprintf(cfg.out, "%-10s %-9s %5s %12s %12s %10s %9s %9s %8s\n",
		"dataset", "mode", "ef", "latency/q", "compdists/q", "hops/q", "recall@10", "tie-aware", "speedup")

	for _, name := range []string{"words", "color", "color32", "dnaedit"} {
		ds := scaledDataset(cfg, name)
		tree, err := buildSPB(ds, cfg.seed, core.Options{})
		if err != nil {
			return err
		}
		queries := ds.Queries(cfg.queries)

		exact, exactIDs, exactKth, err := pr9Exact(tree, queries, k)
		if err != nil {
			tree.Close()
			return err
		}
		if err := tree.BuildGraph(core.GraphOptions{Seed: cfg.seed}); err != nil {
			tree.Close()
			return err
		}
		recheck, _, _, err := pr9Exact(tree, queries, k)
		if err != nil {
			tree.Close()
			return err
		}
		if recheck.Hash != exact.Hash || recheck.CD != exact.CD {
			tree.Close()
			return fmt.Errorf("pr9: %s: exact kNN changed after BuildGraph (hash %x cd %.1f -> hash %x cd %.1f)",
				ds.Name, exact.Hash, exact.CD, recheck.Hash, recheck.CD)
		}
		exact.Dataset, exact.Mode = ds.Name, "exact"
		report.Entries = append(report.Entries, exact)
		fmt.Fprintf(cfg.out, "%-10s %-9s %5s %10.0fµs %12.1f %10s %9s %9s %8s\n",
			ds.Name, "exact", "-", exact.WallUs, exact.CD, "-", "-", "-", "-")

		for _, ef := range []int{16, 32, 64, 128} {
			e, err := pr9Graph(tree, queries, k, ef, exactIDs, exactKth)
			if err != nil {
				tree.Close()
				return err
			}
			e.Dataset, e.Mode = ds.Name, "graph"
			e.Speedup = exact.WallUs / e.WallUs
			report.Entries = append(report.Entries, e)
			fmt.Fprintf(cfg.out, "%-10s %-9s %5d %10.0fµs %12.1f %10.1f %9.3f %9.3f %7.1fx\n",
				ds.Name, "graph", ef, e.WallUs, e.CD, e.Hops, e.Recall, e.RecallTie, e.Speedup)
			if ds.Name == "Color" && ef == core.DefaultEf && e.Recall < 0.90 {
				tree.Close()
				return fmt.Errorf("pr9: Color recall@%d = %.3f at default ef=%d, gate is 0.90",
					k, e.Recall, ef)
			}
		}
		tree.Close()
	}
	if cfg.jsonPath != "" {
		b, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.jsonPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(cfg.out, "wrote %s\n", cfg.jsonPath)
	}
	return nil
}

// pr9Entry is one (dataset, mode, ef) warm measurement, averaged per query.
type pr9Entry struct {
	Dataset string  `json:"dataset"`
	Mode    string  `json:"mode"`
	Ef      int     `json:"ef,omitempty"`
	WallUs  float64 `json:"wall_us_per_query"`
	CD      float64 `json:"compdists_per_query"`
	Hops    float64 `json:"graph_hops_per_query,omitempty"`
	Recall  float64 `json:"recall_at_10,omitempty"`
	// RecallTie is tie-aware recall@10 (recall.WithinKth): the fraction of
	// returned distances no larger than the exact 10th-neighbor distance.
	RecallTie float64 `json:"recall_at_10_tie_aware,omitempty"`
	Speedup   float64 `json:"speedup_vs_exact,omitempty"`
	Hash      uint64  `json:"result_hash,omitempty"`
}

// pr9Report is the BENCH_PR9.json schema.
type pr9Report struct {
	N          int        `json:"n"`
	Queries    int        `json:"queries"`
	K          int        `json:"k"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Entries    []pr9Entry `json:"entries"`
}

// pr9Exact runs the warm exact-kNN protocol: one priming pass, then a
// measured pass recording per-query stats, the ordered result hash and the
// per-query ID lists (the recall baseline).
func pr9Exact(tree *core.Tree, queries []metric.Object, k int) (pr9Entry, [][]uint64, []float64, error) {
	var e pr9Entry
	for _, q := range queries {
		if _, err := tree.KNN(q, k); err != nil {
			return e, nil, nil, err
		}
	}
	h := fnv.New64a()
	var buf [16]byte
	ids := make([][]uint64, len(queries))
	kth := make([]float64, len(queries))
	for qi, q := range queries {
		res, qs, err := tree.Query(context.Background(), core.Query{Op: core.OpKNN, Q: q, K: k, Timed: true})
		if err != nil {
			return e, nil, nil, err
		}
		e.WallUs += float64(qs.Elapsed.Microseconds())
		e.CD += float64(qs.Compdists)
		ids[qi] = make([]uint64, len(res))
		for i, x := range res {
			ids[qi][i] = x.Object.ID()
			binary.LittleEndian.PutUint64(buf[:8], x.Object.ID())
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(x.Dist))
			h.Write(buf[:])
		}
		if len(res) > 0 {
			kth[qi] = res[len(res)-1].Dist
		}
	}
	e.Hash = h.Sum64()
	nq := float64(len(queries))
	e.WallUs /= nq
	e.CD /= nq
	return e, ids, kth, nil
}

// pr9Graph runs the warm graph-kNN protocol at one beam width, measuring
// latency, cost and mean recall@k against the exact baseline.
func pr9Graph(tree *core.Tree, queries []metric.Object, k, ef int, exactIDs [][]uint64, exactKth []float64) (pr9Entry, error) {
	e := pr9Entry{Ef: ef}
	opts := core.SearchOptions{Ef: ef}
	for _, q := range queries {
		if _, _, err := tree.Query(context.Background(), core.Query{Op: core.OpKNNGraph, Q: q, K: k, Search: opts}); err != nil {
			return e, err
		}
	}
	recalls := make([]float64, 0, len(queries))
	tieRecalls := make([]float64, 0, len(queries))
	for qi, q := range queries {
		res, qs, err := tree.Query(context.Background(), core.Query{Op: core.OpKNNGraph, Q: q, K: k, Search: opts, Timed: true})
		if err != nil {
			return e, err
		}
		e.WallUs += float64(qs.Elapsed.Microseconds())
		e.CD += float64(qs.Compdists)
		e.Hops += float64(qs.GraphHops)
		got := make([]uint64, len(res))
		dists := make([]float64, len(res))
		for i, x := range res {
			got[i] = x.Object.ID()
			dists[i] = x.Dist
		}
		recalls = append(recalls, recall.AtK(exactIDs[qi], got, k))
		tieRecalls = append(tieRecalls, recall.WithinKth(exactKth[qi], dists, k))
	}
	e.Recall = recall.Mean(recalls)
	e.RecallTie = recall.Mean(tieRecalls)
	nq := float64(len(queries))
	e.WallUs /= nq
	e.CD /= nq
	e.Hops /= nq
	return e, nil
}
