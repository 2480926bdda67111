package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"spbtree/internal/core"
	"spbtree/internal/metric"
)

// rung is one boundary of the ladder: a way to replay a kNN query by calling
// one layer's public entry point directly.
type rung struct {
	name string
	// prep runs before the clock starts (a kernel rung needs the query's true
	// k-th distance); nil for most rungs.
	prep func(q metric.Object)
	// call replays q. It may record child spans under parent.
	call func(ctx context.Context, q metric.Object, tr *tracer, req string, parent int) (core.QueryStats, error)
}

// ladderResult holds, per rung name, each query's wall time in ms and the
// QueryStats the rung returned.
type ladderResult struct {
	queries []metric.Object
	ms      map[string][]float64
	stats   map[string][]core.QueryStats
}

// replay runs query number qi at every rung, innermost first, recording one
// span per call under a root span for the query, and appends what it measured
// to lad.
func replay(ctx context.Context, tr *tracer, workload string, qi int, q metric.Object, rungs []rung, lad *ladderResult) error {
	req := fmt.Sprintf("%s/q%03d", workload, qi)
	root := tr.start("query", req, 0)
	defer tr.end(root)
	for _, r := range rungs {
		if r.prep != nil {
			r.prep(q)
		}
		rreq := req + "/" + r.name
		id := tr.start(r.name, rreq, root)
		t0 := time.Now()
		qs, err := r.call(ctx, q, tr, rreq, id)
		d := time.Since(t0)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("ladder rung %s: %w", r.name, err)
		}
		lad.ms[r.name] = append(lad.ms[r.name], ms(d))
		lad.stats[r.name] = append(lad.stats[r.name], qs)
	}
	return nil
}

func newLadderResult(queries []metric.Object) ladderResult {
	return ladderResult{queries: queries, ms: map[string][]float64{}, stats: map[string][]core.QueryStats{}}
}

// runLadder replays every query at every rung with one client.
func runLadder(ctx context.Context, tr *tracer, workload string, queries []metric.Object, rungs []rung) (ladderResult, error) {
	lad := newLadderResult(queries)
	for qi, q := range queries {
		if err := replay(ctx, tr, workload, qi, q, rungs, &lad); err != nil {
			return lad, err
		}
	}
	return lad, nil
}

// sink keeps the kernel rungs' results alive so the scans are not elided.
var sink float64

// kernelRungs returns the three flat-scan rungs over objs: every object's
// distance to the query through the scalar kernel, through the bounded kernel
// with the query's true k-th distance as its bound, and through the batch
// kernel in blocks of 16 under the same bound — the calls verification makes,
// minus everything around them.
func kernelRungs(d metric.DistanceFunc, objs func() []metric.Object) []rung {
	const block = 16
	var kth float64
	var all []float64 // the scalar rung's distances, which give the next rungs their bound
	dists := make([]float64, block)
	within := make([]bool, block)
	noStats := core.QueryStats{}
	return []rung{
		{
			name: "kernel.scalar",
			call: func(_ context.Context, q metric.Object, _ *tracer, _ string, _ int) (core.QueryStats, error) {
				all = all[:0]
				for _, o := range objs() {
					all = append(all, d.Distance(q, o))
				}
				return noStats, nil
			},
		},
		{
			name: "kernel.bounded",
			prep: func(metric.Object) {
				sort.Float64s(all)
				kth = all[min(k, len(all))-1]
			},
			call: func(_ context.Context, q metric.Object, _ *tracer, _ string, _ int) (core.QueryStats, error) {
				for _, o := range objs() {
					v, _ := metric.DistanceAtMost(d, q, o, kth)
					sink += v
				}
				return noStats, nil
			},
		},
		{
			name: "kernel.batch",
			call: func(_ context.Context, q metric.Object, _ *tracer, _ string, _ int) (core.QueryStats, error) {
				all := objs()
				for i := 0; i < len(all); i += block {
					blk := all[i:min(i+block, len(all))]
					metric.BatchDistanceAtMost(d, q, blk, kth, dists[:len(blk)], within[:len(blk)])
					sink += dists[0]
				}
				return noStats, nil
			},
		},
	}
}

// estimateErr compares the tree's cost model with what the tree rung saw:
// the mean relative error of EstimateKNN's EDC against observed compdists,
// and of its EPA against observed page accesses.
func estimateErr(tree *core.Tree, lad ladderResult, m metrics) error {
	var edc, epa, cd, pa []float64
	for i, q := range lad.queries {
		est, err := tree.EstimateKNN(q, k)
		if err != nil {
			return fmt.Errorf("EstimateKNN: %w", err)
		}
		qs := lad.stats["tree"][i]
		edc, cd = append(edc, est.EDC), append(cd, float64(qs.Compdists))
		epa, pa = append(epa, est.EPA), append(pa, float64(qs.PageAccesses()))
	}
	m["core.edc_rel_err"] = single("ratio", relErr(edc, cd))
	m["core.epa_rel_err"] = single("ratio", relErr(epa, pa))
	return nil
}

// relErr is the mean of |estimate − observed| / observed over the pairs whose
// observation is not zero.
func relErr(est, obs []float64) float64 {
	var sum float64
	n := 0
	for i := range est {
		if obs[i] != 0 {
			sum += math.Abs(est[i]-obs[i]) / obs[i]
			n++
		}
	}
	return ratio(sum, float64(n))
}
