package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"spbtree/internal/core"
	"spbtree/internal/dataset"
	"spbtree/internal/metric"
	"spbtree/internal/page"
)

// pr5 benchmarks the threshold-aware distance kernels (DESIGN.md §10) on the
// verification-heavy workloads: Words and DNAEdit under edit distance, Color
// under L5. Each workload's tree is built once with the current metric,
// persisted, and reopened with a bench-local replica of the pre-kernel
// distance functions (textbook O(mn) dynamic-programming Levenshtein,
// math.Pow-based L5) — so all three query modes traverse the *same* index
// and differ only in the distance kernel:
//
//	prepr    pre-kernel evaluation, the speedup baseline
//	exact    bit-parallel / fast-power kernels, bound-awareness off
//	bounded  the same kernels fed the caller's live bound
//
// Beyond reporting warm kNN and range timings, the experiment enforces the
// kernel layer's invariants and fails on violation — the CI regression gate:
//
//   - exact and bounded modes return byte-identical result sets (FNV-1a over
//     every (id, distance-bits) pair, in order) with identical compdists,
//   - on the edit-distance workloads the prepr mode agrees too (integer
//     distances: the bit-parallel kernels must reproduce the DP exactly;
//     Color is exempt because math.Pow differs from the fast power in the
//     last ulp),
//   - Abandoned is zero in prepr and exact modes, and positive for bounded
//     queries on Words (the band-collapse workload).
//
// With -json FILE it writes the machine-readable BENCH_PR5.json report.
func pr5(cfg config) error {
	header(cfg.out, "PR5: threshold-aware distance kernels, pre-kernel vs exact vs bounded")
	report := pr5Report{
		N: cfg.n, Queries: cfg.queries, K: 8,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		WarmSpeedup:   map[string]map[string]float64{},
		VerifySpeedup: map[string]map[string]float64{},
		KernelSpeedup: map[string]map[string]float64{},
	}
	fmt.Fprintf(cfg.out, "%-10s %-6s %12s %12s %12s %12s %10s\n",
		"dataset", "op", "compdists/q", "prepr", "exact", "bounded", "abandon/q")

	for _, name := range []string{"words", "dnaedit", "color"} {
		ds := scaledDataset(cfg, name)
		dir, err := os.MkdirTemp("", "spbbench-pr5-")
		if err != nil {
			return err
		}
		fast, prepr, err := pr5Trees(ds, cfg.seed, dir)
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		queries := ds.Queries(cfg.queries)
		r := 0.08 * ds.Distance.MaxDistance()
		abandonedOnWords := int64(0)

		for _, op := range []string{"knn", "range"} {
			entries := map[string]pr5Entry{}
			for _, mode := range []string{"prepr", "exact", "bounded"} {
				tree := fast
				switch mode {
				case "prepr":
					tree = prepr
				case "exact":
					fast.SetBoundedKernels(false)
				case "bounded":
					fast.SetBoundedKernels(true)
				}
				e, err := pr5Measure(tree, queries, op, r)
				if err != nil {
					fast.Close()
					prepr.Close()
					os.RemoveAll(dir)
					return err
				}
				e.Dataset, e.Op, e.Mode = ds.Name, op, mode
				entries[mode] = e
				report.Entries = append(report.Entries, e)
			}
			if err := pr5Check(entries, ds.Name, op); err != nil {
				fast.Close()
				prepr.Close()
				os.RemoveAll(dir)
				return err
			}
			abandonedOnWords += entries["bounded"].Abandoned

			if _, ok := report.WarmSpeedup[ds.Name]; !ok {
				report.WarmSpeedup[ds.Name] = map[string]float64{}
				report.VerifySpeedup[ds.Name] = map[string]float64{}
				report.KernelSpeedup[ds.Name] = map[string]float64{}
			}
			report.WarmSpeedup[ds.Name][op] = entries["prepr"].WallUs / entries["bounded"].WallUs
			report.VerifySpeedup[ds.Name][op] = entries["prepr"].VerifyUs / entries["bounded"].VerifyUs

			// Kernel-level timing: the same candidate evaluations the verify
			// stage performs, at the op's operative threshold, stripped of
			// RAF reads and traversal — the per-compdist cost this PR
			// rewrites.
			bounds := make([]float64, len(queries))
			for i, q := range queries {
				bounds[i] = r
				if op == "knn" {
					res, err := fast.KNN(q, 8)
					if err != nil {
						fast.Close()
						prepr.Close()
						os.RemoveAll(dir)
						return err
					}
					bounds[i] = ds.Distance.MaxDistance()
					if len(res) > 0 {
						bounds[i] = res[len(res)-1].Dist
					}
				}
			}
			sample := pr5Sample(ds.Objects, 200)
			preprDist := preprDistance(ds)
			preprNs := pr5TimeKernel(func(q, o metric.Object, t float64) float64 {
				return preprDist.Distance(q, o)
			}, queries, sample, bounds)
			boundedNs := pr5TimeKernel(func(q, o metric.Object, t float64) float64 {
				d, _ := metric.DistanceAtMost(ds.Distance, q, o, t)
				return d
			}, queries, sample, bounds)
			report.KernelSpeedup[ds.Name][op] = float64(preprNs) / float64(boundedNs)
			fmt.Fprintf(cfg.out, "%-10s %-6s %12.1f %10.0fµs %10.0fµs %10.0fµs %10.1f\n",
				ds.Name, op, entries["bounded"].CD,
				entries["prepr"].WallUs, entries["exact"].WallUs, entries["bounded"].WallUs,
				float64(entries["bounded"].Abandoned)/float64(len(queries)))
		}
		if ds.Name == "Words" && abandonedOnWords == 0 {
			fast.Close()
			prepr.Close()
			os.RemoveAll(dir)
			return fmt.Errorf("pr5: Words: bounded mode abandoned no evaluation; kernels are not wired into verification")
		}
		fast.Close()
		prepr.Close()
		os.RemoveAll(dir)
	}
	for dsName, ops := range report.WarmSpeedup {
		for op, s := range ops {
			fmt.Fprintf(cfg.out, "warm %s speedup vs pre-kernel [%s]: %.2fx end-to-end, %.2fx verification stage, %.2fx distance kernel\n",
				op, dsName, s, report.VerifySpeedup[dsName][op], report.KernelSpeedup[dsName][op])
		}
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

// pr5Trees builds ds's tree with the current metric on file stores in dir,
// persists it, and reopens the same index with the pre-kernel distance
// replica — two handles over one tree, differing only in the kernel.
func pr5Trees(ds dataset.Dataset, seed int64, dir string) (fast, prepr *core.Tree, err error) {
	idx, err := page.NewFileStore(filepath.Join(dir, core.IndexPagesFile))
	if err != nil {
		return nil, nil, err
	}
	data, err := page.NewFileStore(filepath.Join(dir, core.DataPagesFile))
	if err != nil {
		idx.Close()
		return nil, nil, err
	}
	fast, err = buildSPB(ds, seed, core.Options{
		Traversal: core.Greedy, CacheSize: 1 << 16,
		IndexStore: idx, DataStore: data,
	})
	if err != nil {
		return nil, nil, err
	}
	if err := fast.SaveAtomic(dir); err != nil {
		fast.Close()
		return nil, nil, err
	}
	prepr, err = core.Load(dir, core.LoadOptions{
		Distance: preprDistance(ds), Codec: ds.Codec,
		Traversal: core.Greedy, CacheSize: 1 << 16,
	})
	if err != nil {
		fast.Close()
		return nil, nil, err
	}
	return fast, prepr, nil
}

// preprDistance returns the bench-local pre-kernel distance replica for ds.
func preprDistance(ds dataset.Dataset) metric.DistanceFunc {
	switch ds.Name {
	case "Words", "DNAEdit":
		return preprEditDistance{maxLen: int(ds.Distance.MaxDistance())}
	case "Color":
		return preprL5{dim: 16}
	}
	panic("pr5: no pre-kernel replica for " + ds.Name)
}

// pr5Entry is one (dataset, op, mode) warm measurement, averaged per query.
// Hash folds every result's (id, distance-bits) pair in emission order
// across all queries, so equal hashes mean byte-identical answer sets.
type pr5Entry struct {
	Dataset   string  `json:"dataset"`
	Op        string  `json:"op"`
	Mode      string  `json:"mode"`
	WallUs    float64 `json:"wall_us_per_query"`
	VerifyUs  float64 `json:"verify_us_per_query"`
	CD        float64 `json:"compdists_per_query"`
	Abandoned int64   `json:"abandoned_total"`
	Results   int     `json:"results_total"`
	Hash      uint64  `json:"result_hash"`
}

// pr5Report is the BENCH_PR5.json schema: the environment, every
// measurement, and the warm speedups of bounded kernels over the pre-kernel
// baseline per dataset and operation.
type pr5Report struct {
	N          int        `json:"n"`
	Queries    int        `json:"queries"`
	K          int        `json:"k"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Entries    []pr5Entry `json:"entries"`
	// WarmSpeedup is end-to-end query wall time, prepr over bounded; it
	// includes index traversal, which the kernels do not touch.
	WarmSpeedup map[string]map[string]float64 `json:"warm_speedup_vs_prepr"`
	// VerifySpeedup is the same ratio over the verification stage only
	// (QueryStats.VerifyTime: RAF reads plus distance computations) — the
	// part of the query the kernels rewrite.
	VerifySpeedup map[string]map[string]float64 `json:"verify_speedup_vs_prepr"`
	// KernelSpeedup is the ratio over the raw distance evaluations alone,
	// replayed at the op's operative thresholds over a fixed candidate
	// sample — the per-compdist cost, free of RAF and traversal noise.
	KernelSpeedup map[string]map[string]float64 `json:"kernel_speedup_vs_prepr"`
}

// pr5Measure runs the warm-cache protocol: one priming pass, one WithStats
// pass for counters and the result hash, one plain pass for wall time (so
// timings are not skewed by the per-stage clocks of the stats path).
func pr5Measure(tree *core.Tree, queries []metric.Object, op string, r float64) (pr5Entry, error) {
	var e pr5Entry
	run := func(q metric.Object) ([]core.Result, error) {
		if op == "knn" {
			return tree.KNN(q, 8)
		}
		return tree.RangeQuery(q, r)
	}
	for _, q := range queries {
		if _, err := run(q); err != nil {
			return e, err
		}
	}
	h := fnv.New64a()
	var buf [16]byte
	for _, q := range queries {
		req := core.Query{Op: core.OpRange, Q: q, Radius: r, Timed: true}
		if op == "knn" {
			req = core.Query{Op: core.OpKNN, Q: q, K: 8, Timed: true}
		}
		res, qs, err := tree.Query(context.Background(), req)
		if err != nil {
			return e, err
		}
		e.Results += len(res)
		e.CD += float64(qs.Compdists)
		e.VerifyUs += float64(qs.VerifyTime.Microseconds())
		e.Abandoned += qs.Abandoned
		for _, x := range res {
			binary.LittleEndian.PutUint64(buf[:8], x.Object.ID())
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(x.Dist))
			h.Write(buf[:])
		}
	}
	e.Hash = h.Sum64()
	var total time.Duration
	for _, q := range queries {
		start := time.Now()
		if _, err := run(q); err != nil {
			return e, err
		}
		total += time.Since(start)
	}
	nq := float64(len(queries))
	e.WallUs = float64(total.Microseconds()) / nq
	e.VerifyUs /= nq
	e.CD /= nq
	return e, nil
}

// pr5Sample stride-samples up to max objects, deterministically.
func pr5Sample(objs []metric.Object, max int) []metric.Object {
	if len(objs) <= max {
		return objs
	}
	step := len(objs) / max
	out := make([]metric.Object, 0, max)
	for i := 0; i < len(objs) && len(out) < max; i += step {
		out = append(out, objs[i])
	}
	return out
}

// pr5TimeKernel times eval over every (query, sample, per-query bound)
// triple, repeating the pass until the measurement is long enough to be
// stable, and returns the per-pass duration.
func pr5TimeKernel(eval func(q, o metric.Object, t float64) float64, queries, sample []metric.Object, bounds []float64) time.Duration {
	var sink float64
	reps := 0
	start := time.Now()
	for reps < 3 || time.Since(start) < 50*time.Millisecond {
		for i, q := range queries {
			t := bounds[i]
			for _, o := range sample {
				sink += eval(q, o, t)
			}
		}
		reps++
	}
	pr5Sink = sink
	return time.Since(start) / time.Duration(reps)
}

// pr5Sink keeps the timed evaluations observable so they cannot be elided.
var pr5Sink float64

// pr5Check enforces the kernel layer's machine-independent invariants for
// one (dataset, op) cell.
func pr5Check(entries map[string]pr5Entry, ds, op string) error {
	prepr, exact, bounded := entries["prepr"], entries["exact"], entries["bounded"]
	if exact.Hash != bounded.Hash || exact.CD != bounded.CD || exact.Results != bounded.Results {
		return fmt.Errorf("pr5: %s/%s: bounded (hash=%x cd=%.1f results=%d) != exact (hash=%x cd=%.1f results=%d)",
			ds, op, bounded.Hash, bounded.CD, bounded.Results, exact.Hash, exact.CD, exact.Results)
	}
	if ds != "Color" && (prepr.Hash != exact.Hash || prepr.CD != exact.CD) {
		return fmt.Errorf("pr5: %s/%s: pre-kernel DP (hash=%x cd=%.1f) != bit-parallel kernel (hash=%x cd=%.1f)",
			ds, op, prepr.Hash, prepr.CD, exact.Hash, exact.CD)
	}
	if prepr.Abandoned != 0 || exact.Abandoned != 0 {
		return fmt.Errorf("pr5: %s/%s: abandoned counts outside bounded mode: prepr=%d exact=%d",
			ds, op, prepr.Abandoned, exact.Abandoned)
	}
	return nil
}

// preprEditDistance replicates the pre-kernel Levenshtein: the full O(mn)
// two-row dynamic program with heap-allocated rows and no early exit.
type preprEditDistance struct{ maxLen int }

// Distance implements metric.DistanceFunc.
func (e preprEditDistance) Distance(a, b metric.Object) float64 {
	sa, sb := a.(*metric.Str).S, b.(*metric.Str).S
	m, n := len(sa), len(sb)
	prev := make([]int, n+1)
	cur := make([]int, n+1)
	for j := 0; j <= n; j++ {
		prev[j] = j
	}
	for i := 1; i <= m; i++ {
		cur[0] = i
		for j := 1; j <= n; j++ {
			c := prev[j-1]
			if sa[i-1] != sb[j-1] {
				c++
			}
			if v := prev[j] + 1; v < c {
				c = v
			}
			if v := cur[j-1] + 1; v < c {
				c = v
			}
			cur[j] = c
		}
		prev, cur = cur, prev
	}
	return float64(prev[n])
}

// MaxDistance implements metric.DistanceFunc.
func (e preprEditDistance) MaxDistance() float64 { return float64(e.maxLen) }

// Discrete implements metric.DistanceFunc.
func (e preprEditDistance) Discrete() bool { return true }

// Name implements metric.DistanceFunc.
func (e preprEditDistance) Name() string { return "edit-dp" }

// preprL5 replicates the pre-kernel Minkowski-5 distance: math.Pow per
// coordinate and for the final root.
type preprL5 struct{ dim int }

// Distance implements metric.DistanceFunc.
func (p preprL5) Distance(a, b metric.Object) float64 {
	va, vb := a.(*metric.Vector).Coords, b.(*metric.Vector).Coords
	s := 0.0
	for i := range va {
		s += math.Pow(math.Abs(va[i]-vb[i]), 5)
	}
	return math.Pow(s, 1.0/5)
}

// MaxDistance implements metric.DistanceFunc.
func (p preprL5) MaxDistance() float64 { return math.Pow(float64(p.dim), 1.0/5) }

// Discrete implements metric.DistanceFunc.
func (p preprL5) Discrete() bool { return false }

// Name implements metric.DistanceFunc.
func (p preprL5) Name() string { return "L5-pow" }
