package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"spbtree/internal/core"
	"spbtree/internal/metric"
	"spbtree/internal/page"
)

// treeWorkload is an embedded workload: the client is a goroutine calling the
// Tree directly, with library default options except where the spec says so.
type treeWorkload struct {
	sp   spec
	in   inputs
	seed int64
	dir  string
	tree *core.Tree
	// ops is the whole sequence, passSlices slices of sp.ops; next is the
	// slice the next pass takes.
	ops  []op
	next int
	// graphS is how long the last BuildGraph took.
	graphS float64
}

func newTreeWorkload(sp spec, in inputs, seed int64, dir string) *treeWorkload {
	w := &treeWorkload{sp: sp, in: in, seed: seed, dir: dir}
	for i, q := range in.queries {
		kind := opKNN
		if sp.radius > 0 && i%2 == 1 {
			kind = opRange
		}
		w.ops = append(w.ops, op{kind: kind, obj: q})
	}
	return w
}

func (w *treeWorkload) setup() error {
	opts := core.Options{Distance: w.in.ds.Distance, Codec: w.in.ds.Codec,
		Seed: w.seed, CacheSize: w.sp.cachePages}
	if w.sp.file {
		var err error
		if opts.IndexStore, err = page.NewFileStore(filepath.Join(w.dir, "index.pages")); err != nil {
			return err
		}
		if opts.DataStore, err = page.NewFileStore(filepath.Join(w.dir, "data.pages")); err != nil {
			return err
		}
	}
	tree, err := core.Build(w.in.indexed, opts)
	if err != nil {
		return err
	}
	w.tree = tree
	if w.sp.graph {
		t0 := time.Now()
		if err := tree.BuildGraph(core.GraphOptions{Seed: w.seed}); err != nil {
			return fmt.Errorf("BuildGraph: %w", err)
		}
		w.graphS = time.Since(t0).Seconds()
	}
	return nil
}

func (w *treeWorkload) teardown() error {
	if w.tree == nil {
		return nil
	}
	err := w.tree.Close()
	w.tree = nil
	return err
}

func (w *treeWorkload) passOps() []op {
	slice := w.ops[w.next*w.sp.ops : (w.next+1)*w.sp.ops]
	w.next = (w.next + 1) % passSlices
	return slice
}

func (w *treeWorkload) knnQueries() []metric.Object {
	var qs []metric.Object
	for _, o := range w.ops[:w.sp.ops] {
		if o.kind == opKNN {
			qs = append(qs, o.obj)
		}
	}
	return qs
}

func (w *treeWorkload) setSerial(on bool) {
	if on {
		w.tree.SetWorkers(1)
	} else {
		w.tree.SetWorkers(0)
	}
}

func (w *treeWorkload) live() []metric.Object { return w.in.indexed }

func (w *treeWorkload) storageBytes() (int64, error) { return w.tree.StorageBytes(), nil }

func (w *treeWorkload) notes() []string {
	cache := w.sp.cachePages
	if cache == 0 {
		cache = 32
	}
	pages := w.tree.StorageBytes() / page.Size
	store := "MemStore"
	if w.sp.file {
		store = "FileStore, no fsync on the read path, reads served from the operating system's cache"
	}
	return []string{fmt.Sprintf("%s; buffer cache %d pages per store, index+RAF %d pages", store, cache, pages)}
}

func (w *treeWorkload) do(ctx context.Context, o op, stats bool) (answer, error) {
	var res []core.Result
	var qs core.QueryStats
	var err error
	switch {
	case o.kind == opRange && stats:
		res, qs, err = w.tree.RangeSearchWithStatsCtx(ctx, o.obj, w.sp.radius)
	case o.kind == opRange:
		res, err = w.tree.RangeSearchCtx(ctx, o.obj, w.sp.radius)
	case w.sp.graph && stats:
		res, qs, err = w.tree.KNNGraphWithStatsCtx(ctx, o.obj, k, core.SearchOptions{})
	case w.sp.graph:
		res, err = w.tree.KNNGraphCtx(ctx, o.obj, k, core.SearchOptions{})
	case stats:
		res, qs, err = w.tree.KNNWithStatsCtx(ctx, o.obj, k)
	default:
		res, err = w.tree.KNNCtx(ctx, o.obj, k)
	}
	return toAnswer(res, qs), err
}

func toAnswer(res []core.Result, qs core.QueryStats) answer {
	a := answer{ids: make([]uint64, len(res)), dists: make([]float64, len(res)), qs: qs}
	for i, r := range res {
		a.ids[i], a.dists[i] = r.Object.ID(), r.Dist
	}
	return a
}

// treeRungs are the two ways the ladder calls a tree: with one verifier
// (tree.serial) and with the default pool (tree). Their ratio is the evidence
// for, or against, the parallel engine.
func treeRungs(tree *core.Tree, knn func(context.Context, metric.Object) (core.QueryStats, error)) []rung {
	call := func(ctx context.Context, q metric.Object, _ *tracer, _ string, _ int) (core.QueryStats, error) {
		return knn(ctx, q)
	}
	return []rung{
		{name: "tree.serial", prep: func(metric.Object) { tree.SetWorkers(1) }, call: call},
		{name: "tree", prep: func(metric.Object) { tree.SetWorkers(0) }, call: call},
	}
}

func (w *treeWorkload) ladder() ([]rung, func(), error) {
	knn := func(ctx context.Context, q metric.Object) (core.QueryStats, error) {
		a, err := w.do(ctx, op{kind: opKNN, obj: q}, true)
		return a.qs, err
	}
	rungs := append(kernelRungs(w.in.ds.Distance, w.live), treeRungs(w.tree, knn)...)
	return rungs, func() {}, nil
}

func (w *treeWorkload) layers(_ context.Context, _ *tracer, lad ladderResult, m metrics) error {
	if w.sp.graph {
		m["graph.build_s"] = single("s", w.graphS)
	}
	return estimateErr(w.tree, lad, m)
}

func (w *treeWorkload) finish(context.Context, *result) {}
