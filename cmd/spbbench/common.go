package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"spbtree/internal/core"
	"spbtree/internal/dataset"
	"spbtree/internal/metric"
	"spbtree/internal/mindex"
	"spbtree/internal/mtree"
	"spbtree/internal/omni"
	"spbtree/internal/sfc"
)

// config carries the harness-wide knobs.
type config struct {
	n       int   // dataset cardinality (scaled down from the paper's)
	queries int   // measured queries (the paper uses 500)
	seed    int64 // generator seed
	out     io.Writer
}

// measured aggregates the paper's three metrics over a query batch.
type measured struct {
	pa, cd float64
	t      time.Duration
}

func (m measured) String() string {
	return fmt.Sprintf("PA=%.1f compdists=%.1f time=%v", m.pa, m.cd, m.t.Round(time.Microsecond))
}

// cost is what one query cost the index that answered it.
type cost struct {
	pa, cd int64
	t      time.Duration
}

// searchIndex is the minimal surface the harness needs from every MAM.
// Range and KNN follow the paper's cold-cache protocol: counters reset and
// caches flushed before the query, whose own cost they return.
type searchIndex interface {
	Range(q metric.Object, r float64) (cost, error)
	KNN(q metric.Object, k int) (cost, error)
	Insert(o metric.Object) error
	ResetStats()
	Stats() (pa, cd int64)
	StorageBytes() int64
}

// --- adapters ----------------------------------------------------------------

// spbAdapter reads a query's cost from its own QueryStats, so the reported
// PA/compdists are attributable per query and the wall time excludes harness
// overhead.
type spbAdapter struct{ t *core.Tree }

func (a spbAdapter) query(q core.Query) (cost, error) {
	a.t.ResetStats()
	q.Timed = true
	_, qs, err := a.t.Query(context.Background(), q)
	return cost{pa: qs.PageAccesses(), cd: qs.Compdists, t: qs.Elapsed}, err
}
func (a spbAdapter) Range(q metric.Object, r float64) (cost, error) {
	return a.query(core.Query{Op: core.OpRange, Q: q, Radius: r})
}
func (a spbAdapter) KNN(q metric.Object, k int) (cost, error) {
	return a.query(core.Query{Op: core.OpKNN, Q: q, K: k})
}
func (a spbAdapter) Insert(o metric.Object) error { return a.t.Insert(o) }
func (a spbAdapter) ResetStats()                  { a.t.ResetStats() }
func (a spbAdapter) Stats() (int64, int64) {
	s := a.t.TakeStats()
	return s.PageAccesses, s.DistanceComputations
}
func (a spbAdapter) StorageBytes() int64 { return a.t.StorageBytes() }

// baseline is the method set the four baseline MAMs share; R is the
// package's own Result type.
type baseline[R any] interface {
	RangeQuery(q metric.Object, r float64) ([]R, error)
	KNN(q metric.Object, k int) ([]R, error)
	Insert(o metric.Object) error
	ResetStats()
	TakeStats() (pa, compdists int64)
	StorageBytes() int64
}

// baselineAdapter measures a baseline with the reset+delta counter protocol.
type baselineAdapter[R any] struct{ baseline[R] }

func (a baselineAdapter[R]) measure(run func() ([]R, error)) (cost, error) {
	a.ResetStats()
	start := time.Now()
	if _, err := run(); err != nil {
		return cost{}, err
	}
	t := time.Since(start)
	pa, cd := a.TakeStats()
	return cost{pa: pa, cd: cd, t: t}, nil
}
func (a baselineAdapter[R]) Range(q metric.Object, r float64) (cost, error) {
	return a.measure(func() ([]R, error) { return a.RangeQuery(q, r) })
}
func (a baselineAdapter[R]) KNN(q metric.Object, k int) (cost, error) {
	return a.measure(func() ([]R, error) { return a.baseline.KNN(q, k) })
}
func (a baselineAdapter[R]) Stats() (int64, int64) { return a.TakeStats() }

// mamNames orders the competitors as the paper's tables do, with the
// PM-tree (related-work hybrid, Section 2.1) added as a fifth comparator.
var mamNames = []string{"M-tree", "PM-tree", "OmniR-tree", "M-Index", "SPB-tree"}

// mtreePivots is what tells the two M-tree-family competitors apart: the
// PM-tree is the M-tree with hyper-rings to 4 global pivots.
var mtreePivots = map[string]int{"M-tree": 0, "PM-tree": 4}

// buildResult captures Table 6's construction columns.
type buildResult struct {
	idx     searchIndex
	pa, cd  int64
	elapsed time.Duration
	storage int64
}

// buildMAM constructs the named access method over ds and measures the
// construction cost.
func buildMAM(name string, ds dataset.Dataset, seed int64) (buildResult, error) {
	start := time.Now()
	switch name {
	case "SPB-tree":
		t, err := core.Build(ds.Objects, core.Options{
			Distance: ds.Distance, Codec: ds.Codec, Seed: seed,
		})
		if err != nil {
			return buildResult{}, err
		}
		s := t.TakeStats()
		return buildResult{idx: spbAdapter{t}, pa: s.PageAccesses, cd: s.DistanceComputations,
			elapsed: time.Since(start), storage: t.StorageBytes()}, nil
	case "M-tree", "PM-tree":
		t, err := mtree.New(mtree.Options{Distance: ds.Distance, Codec: ds.Codec, Seed: seed, Pivots: mtreePivots[name]})
		if err != nil {
			return buildResult{}, err
		}
		if err := t.BulkLoad(ds.Objects); err != nil {
			return buildResult{}, err
		}
		return builtBaseline[mtree.Result](t, start), nil
	case "OmniR-tree":
		t, err := omni.Build(ds.Objects, omni.Options{Distance: ds.Distance, Codec: ds.Codec, Seed: seed})
		if err != nil {
			return buildResult{}, err
		}
		return builtBaseline[omni.Result](t, start), nil
	case "M-Index":
		t, err := mindex.Build(ds.Objects, mindex.Options{Distance: ds.Distance, Codec: ds.Codec, Seed: seed})
		if err != nil {
			return buildResult{}, err
		}
		return builtBaseline[mindex.Result](t, start), nil
	}
	return buildResult{}, fmt.Errorf("unknown MAM %q", name)
}

// builtBaseline reads the construction columns off a freshly built baseline.
func builtBaseline[R any](t baseline[R], start time.Time) buildResult {
	pa, cd := t.TakeStats()
	return buildResult{idx: baselineAdapter[R]{t}, pa: pa, cd: cd,
		elapsed: time.Since(start), storage: t.StorageBytes()}
}

// buildSPB builds an SPB-tree with extra options for the parameter studies.
func buildSPB(ds dataset.Dataset, seed int64, opts core.Options) (*core.Tree, error) {
	opts.Distance = ds.Distance
	opts.Codec = ds.Codec
	if opts.Seed == 0 {
		opts.Seed = seed
	}
	return core.Build(ds.Objects, opts)
}

// measure averages the cost of one query per workload object.
func measure(queries []metric.Object, one func(q metric.Object) (cost, error)) (measured, error) {
	var m measured
	for _, q := range queries {
		c, err := one(q)
		if err != nil {
			return m, err
		}
		m.pa += float64(c.pa)
		m.cd += float64(c.cd)
		m.t += c.t
	}
	n := float64(len(queries))
	m.pa /= n
	m.cd /= n
	m.t /= time.Duration(len(queries))
	return m, nil
}

// runRange measures averaged range queries of radius r.
func runRange(idx searchIndex, queries []metric.Object, r float64) (measured, error) {
	return measure(queries, func(q metric.Object) (cost, error) { return idx.Range(q, r) })
}

// runKNN measures averaged kNN queries.
func runKNN(idx searchIndex, queries []metric.Object, k int) (measured, error) {
	return measure(queries, func(q metric.Object) (cost, error) { return idx.KNN(q, k) })
}

// scaledDataset returns the named dataset at the harness cardinality. DNA's
// tri-gram metric is the most expensive, so it runs at half size by default
// — the same proportionality the paper's table of cardinalities has.
func scaledDataset(cfg config, name string) dataset.Dataset {
	n := cfg.n
	if name == "dna" || name == "DNA" {
		n = cfg.n / 2
		if n == 0 {
			n = cfg.n
		}
	}
	ds, ok := dataset.ByName(name, n, cfg.seed)
	if !ok {
		panic("unknown dataset " + name)
	}
	return ds
}

// header prints a section banner.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

// zorderOpts returns SPB options for join experiments.
func zorderOpts() core.Options {
	return core.Options{Curve: sfc.ZOrder}
}
