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

// pr8 benchmarks blocked batch verification and the float32 vector kind
// (DESIGN.md §13) on the verification-heavy workloads: Words under edit
// distance, Color under L5 in both float64 and float32 representations, and
// Signature under Hamming. Each workload's tree is built once with greedy
// traversal on file-backed stores (so leaf candidate blocks really land via
// raf.ReadBatch) and queried in two modes that differ only in the batch
// toggle:
//
//	scalar  PR5's bounded path, one DistanceAtMost per candidate
//	batch   blocked verification: per-query state hoisted, whole leaf
//	        blocks evaluated through BatchDistanceAtMost
//
// Beyond timings, the experiment enforces the batch layer's
// machine-independent invariants and fails on violation — the CI gate:
//
//   - scalar and batch modes return byte-identical result sets (FNV-1a over
//     every (id, distance-bits) pair, in order) with identical compdists and
//     Abandoned counts,
//   - BatchedCandidates is zero in scalar mode and positive in batch mode
//     for every (dataset, op) cell — a silent fallback to the scalar path
//     fails the run.
//
// The float32 story is the Color → Color32 column: the same cluster draw at
// half the payload width, batch-verified — the verify-stage ratio against
// Color's scalar float64 path is the PR's headline number.
//
// With -json FILE it writes the machine-readable BENCH_PR8.json report.
func pr8(cfg config) error {
	header(cfg.out, "PR8: blocked batch verification + float32 vectors, scalar vs batch")
	report := pr8Report{
		N: cfg.n, Queries: cfg.queries, K: 8,
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		WarmSpeedup:      map[string]map[string]float64{},
		VerifySpeedup:    map[string]map[string]float64{},
		F32VerifySpeedup: map[string]float64{},
	}
	fmt.Fprintf(cfg.out, "%-10s %-6s %12s %12s %12s %12s\n",
		"dataset", "op", "compdists/q", "scalar", "batch", "batched/q")

	// colorVerify[op] holds Color's scalar float64 verify time so the
	// Color32 pass can report the cross-representation speedup.
	colorVerify := map[string]float64{}
	for _, name := range []string{"words", "color", "color32", "signature"} {
		ds := scaledDataset(cfg, name)
		dir, err := os.MkdirTemp("", "spbbench-pr8-")
		if err != nil {
			return err
		}
		tree, err := pr8Tree(ds, cfg.seed, dir)
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		fail := func(err error) error {
			tree.Close()
			os.RemoveAll(dir)
			return err
		}
		queries := ds.Queries(cfg.queries)
		r := 0.08 * ds.Distance.MaxDistance()

		for _, op := range []string{"knn", "range"} {
			tree.SetBatchKernels(false)
			scalar, err := pr8Measure(tree, queries, op, r)
			if err != nil {
				return fail(err)
			}
			tree.SetBatchKernels(true)
			batch, err := pr8Measure(tree, queries, op, r)
			if err != nil {
				return fail(err)
			}
			for i, e := range []*pr8Entry{&scalar, &batch} {
				e.Dataset, e.Op = ds.Name, op
				e.Mode = []string{"scalar", "batch"}[i]
				report.Entries = append(report.Entries, *e)
			}
			if err := pr8Check(scalar, batch, ds.Name, op); err != nil {
				return fail(err)
			}

			if _, ok := report.WarmSpeedup[ds.Name]; !ok {
				report.WarmSpeedup[ds.Name] = map[string]float64{}
				report.VerifySpeedup[ds.Name] = map[string]float64{}
			}
			report.WarmSpeedup[ds.Name][op] = scalar.WallUs / batch.WallUs
			report.VerifySpeedup[ds.Name][op] = scalar.VerifyUs / batch.VerifyUs
			if ds.Name == "Color" {
				colorVerify[op] = scalar.VerifyUs
			}
			if ds.Name == "Color32" && colorVerify[op] > 0 {
				report.F32VerifySpeedup[op] = colorVerify[op] / batch.VerifyUs
			}
			fmt.Fprintf(cfg.out, "%-10s %-6s %12.1f %10.0fµs %10.0fµs %12.1f\n",
				ds.Name, op, batch.CD, scalar.VerifyUs, batch.VerifyUs,
				float64(batch.Batched)/float64(len(queries)))
		}
		tree.Close()
		os.RemoveAll(dir)
	}
	for dsName, ops := range report.VerifySpeedup {
		for op, s := range ops {
			fmt.Fprintf(cfg.out, "batch %s speedup vs scalar-bounded [%s]: %.2fx verification stage, %.2fx end-to-end\n",
				op, dsName, s, report.WarmSpeedup[dsName][op])
		}
	}
	for op, s := range report.F32VerifySpeedup {
		fmt.Fprintf(cfg.out, "float32+batch %s verify speedup vs Color float64 scalar: %.2fx\n", op, s)
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

// pr8Tree builds ds's tree with greedy traversal on file stores in dir, the
// configuration where whole leaf blocks reach the batch kernels.
func pr8Tree(ds dataset.Dataset, seed int64, dir string) (*core.Tree, error) {
	idx, err := page.NewFileStore(filepath.Join(dir, core.IndexPagesFile))
	if err != nil {
		return nil, err
	}
	data, err := page.NewFileStore(filepath.Join(dir, core.DataPagesFile))
	if err != nil {
		idx.Close()
		return nil, err
	}
	return buildSPB(ds, seed, core.Options{
		Traversal: core.Greedy, CacheSize: 1 << 16,
		IndexStore: idx, DataStore: data,
	})
}

// pr8Entry is one (dataset, op, mode) warm measurement, averaged per query.
// Hash folds every result's (id, distance-bits) pair in emission order
// across all queries, so equal hashes mean byte-identical answer sets.
type pr8Entry struct {
	Dataset   string  `json:"dataset"`
	Op        string  `json:"op"`
	Mode      string  `json:"mode"`
	WallUs    float64 `json:"wall_us_per_query"`
	VerifyUs  float64 `json:"verify_us_per_query"`
	CD        float64 `json:"compdists_per_query"`
	Abandoned int64   `json:"abandoned_total"`
	Batched   int64   `json:"batched_candidates_total"`
	Results   int     `json:"results_total"`
	Hash      uint64  `json:"result_hash"`
}

// pr8Report is the BENCH_PR8.json schema: the environment, every
// measurement, and the speedups of blocked batch verification over the
// scalar bounded path per dataset and operation.
type pr8Report struct {
	N          int        `json:"n"`
	Queries    int        `json:"queries"`
	K          int        `json:"k"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Entries    []pr8Entry `json:"entries"`
	// WarmSpeedup is end-to-end query wall time, scalar over batch; it
	// includes index traversal, which batching does not touch.
	WarmSpeedup map[string]map[string]float64 `json:"warm_speedup_vs_scalar"`
	// VerifySpeedup is the same ratio over the verification stage only
	// (QueryStats.VerifyTime: RAF reads plus distance computations) — the
	// part of the query blocked verification rewrites.
	VerifySpeedup map[string]map[string]float64 `json:"verify_speedup_vs_scalar"`
	// F32VerifySpeedup is the cross-representation headline: Color32's
	// batch verify stage against Color's scalar float64 verify stage, per
	// op — the combined payload-halving + hoisting win on the same points.
	F32VerifySpeedup map[string]float64 `json:"f32_verify_speedup_vs_f64_scalar"`
}

// pr8Measure runs the warm-cache protocol: one priming pass, one WithStats
// pass for counters and the result hash, one plain pass for wall time.
func pr8Measure(tree *core.Tree, queries []metric.Object, op string, r float64) (pr8Entry, error) {
	var e pr8Entry
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
		e.Batched += qs.BatchedCandidates
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

// pr8Check enforces the batch layer's machine-independent invariants for one
// (dataset, op) cell.
func pr8Check(scalar, batch pr8Entry, ds, op string) error {
	if scalar.Hash != batch.Hash || scalar.CD != batch.CD ||
		scalar.Results != batch.Results || scalar.Abandoned != batch.Abandoned {
		return fmt.Errorf("pr8: %s/%s: batch (hash=%x cd=%.1f results=%d abandoned=%d) != scalar (hash=%x cd=%.1f results=%d abandoned=%d)",
			ds, op, batch.Hash, batch.CD, batch.Results, batch.Abandoned,
			scalar.Hash, scalar.CD, scalar.Results, scalar.Abandoned)
	}
	if scalar.Batched != 0 {
		return fmt.Errorf("pr8: %s/%s: scalar mode counted %d batched candidates", ds, op, scalar.Batched)
	}
	if batch.Batched == 0 {
		return fmt.Errorf("pr8: %s/%s: batch mode batched no candidate; blocked verification is not wired in", ds, op)
	}
	return nil
}
