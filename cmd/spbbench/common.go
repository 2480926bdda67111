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
	"spbtree/internal/pmtree"
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

// searchIndex is the minimal surface the harness needs from every MAM.
type searchIndex interface {
	RangeCount(q metric.Object, r float64) (int, error)
	KNNCount(q metric.Object, k int) (int, error)
	Insert(o metric.Object) error
	ResetStats()
	Stats() (pa, cd int64)
	StorageBytes() int64
}

// queryStatsIndex is the per-query observability surface: indexes that
// implement it (the SPB-tree) are measured from each query's own QueryStats
// instead of the reset+delta counter protocol, so the reported PA/compdists
// are attributable per query and the wall time excludes harness overhead.
type queryStatsIndex interface {
	RangeStats(q metric.Object, r float64) (int, core.QueryStats, error)
	KNNStats(q metric.Object, k int) (int, core.QueryStats, error)
}

// --- adapters ----------------------------------------------------------------

type spbAdapter struct{ t *core.Tree }

func (a spbAdapter) RangeCount(q metric.Object, r float64) (int, error) {
	res, err := a.t.RangeQuery(q, r)
	return len(res), err
}
func (a spbAdapter) KNNCount(q metric.Object, k int) (int, error) {
	res, err := a.t.KNN(q, k)
	return len(res), err
}
func (a spbAdapter) RangeStats(q metric.Object, r float64) (int, core.QueryStats, error) {
	res, qs, err := a.t.Query(context.Background(), core.Query{Op: core.OpRange, Q: q, Radius: r, Timed: true})
	return len(res), qs, err
}
func (a spbAdapter) KNNStats(q metric.Object, k int) (int, core.QueryStats, error) {
	res, qs, err := a.t.Query(context.Background(), core.Query{Op: core.OpKNN, Q: q, K: k, Timed: true})
	return len(res), qs, err
}
func (a spbAdapter) Insert(o metric.Object) error { return a.t.Insert(o) }
func (a spbAdapter) ResetStats()                  { a.t.ResetStats() }
func (a spbAdapter) Stats() (int64, int64) {
	s := a.t.TakeStats()
	return s.PageAccesses, s.DistanceComputations
}
func (a spbAdapter) StorageBytes() int64 { return a.t.StorageBytes() }

type mtreeAdapter struct{ t *mtree.Tree }

func (a mtreeAdapter) RangeCount(q metric.Object, r float64) (int, error) {
	res, err := a.t.RangeQuery(q, r)
	return len(res), err
}
func (a mtreeAdapter) KNNCount(q metric.Object, k int) (int, error) {
	res, err := a.t.KNN(q, k)
	return len(res), err
}
func (a mtreeAdapter) Insert(o metric.Object) error { return a.t.Insert(o) }
func (a mtreeAdapter) ResetStats()                  { a.t.ResetStats() }
func (a mtreeAdapter) Stats() (int64, int64)        { return a.t.TakeStats() }
func (a mtreeAdapter) StorageBytes() int64          { return a.t.StorageBytes() }

type omniAdapter struct{ t *omni.Tree }

func (a omniAdapter) RangeCount(q metric.Object, r float64) (int, error) {
	res, err := a.t.RangeQuery(q, r)
	return len(res), err
}
func (a omniAdapter) KNNCount(q metric.Object, k int) (int, error) {
	res, err := a.t.KNN(q, k)
	return len(res), err
}
func (a omniAdapter) Insert(o metric.Object) error { return a.t.Insert(o) }
func (a omniAdapter) ResetStats()                  { a.t.ResetStats() }
func (a omniAdapter) Stats() (int64, int64)        { return a.t.TakeStats() }
func (a omniAdapter) StorageBytes() int64          { return a.t.StorageBytes() }

type pmtreeAdapter struct{ t *pmtree.Tree }

func (a pmtreeAdapter) RangeCount(q metric.Object, r float64) (int, error) {
	res, err := a.t.RangeQuery(q, r)
	return len(res), err
}
func (a pmtreeAdapter) KNNCount(q metric.Object, k int) (int, error) {
	res, err := a.t.KNN(q, k)
	return len(res), err
}
func (a pmtreeAdapter) Insert(o metric.Object) error { return a.t.Insert(o) }
func (a pmtreeAdapter) ResetStats()                  { a.t.ResetStats() }
func (a pmtreeAdapter) Stats() (int64, int64)        { return a.t.TakeStats() }
func (a pmtreeAdapter) StorageBytes() int64          { return a.t.StorageBytes() }

type mindexAdapter struct{ t *mindex.Tree }

func (a mindexAdapter) RangeCount(q metric.Object, r float64) (int, error) {
	res, err := a.t.RangeQuery(q, r)
	return len(res), err
}
func (a mindexAdapter) KNNCount(q metric.Object, k int) (int, error) {
	res, err := a.t.KNN(q, k)
	return len(res), err
}
func (a mindexAdapter) Insert(o metric.Object) error { return a.t.Insert(o) }
func (a mindexAdapter) ResetStats()                  { a.t.ResetStats() }
func (a mindexAdapter) Stats() (int64, int64)        { return a.t.TakeStats() }
func (a mindexAdapter) StorageBytes() int64          { return a.t.StorageBytes() }

// mamNames orders the competitors as the paper's tables do, with the
// PM-tree (related-work hybrid, Section 2.1) added as a fifth comparator.
var mamNames = []string{"M-tree", "PM-tree", "OmniR-tree", "M-Index", "SPB-tree"}

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
	case "M-tree":
		t, err := mtree.New(mtree.Options{Distance: ds.Distance, Codec: ds.Codec, Seed: seed})
		if err != nil {
			return buildResult{}, err
		}
		if err := t.BulkLoad(ds.Objects); err != nil {
			return buildResult{}, err
		}
		pa, cd := t.TakeStats()
		return buildResult{idx: mtreeAdapter{t}, pa: pa, cd: cd,
			elapsed: time.Since(start), storage: t.StorageBytes()}, nil
	case "PM-tree":
		t, err := pmtree.New(pmtree.Options{Distance: ds.Distance, Codec: ds.Codec, Seed: seed})
		if err != nil {
			return buildResult{}, err
		}
		if err := t.BulkLoad(ds.Objects); err != nil {
			return buildResult{}, err
		}
		pa, cd := t.TakeStats()
		return buildResult{idx: pmtreeAdapter{t}, pa: pa, cd: cd,
			elapsed: time.Since(start), storage: t.StorageBytes()}, nil
	case "OmniR-tree":
		t, err := omni.Build(ds.Objects, omni.Options{Distance: ds.Distance, Codec: ds.Codec, Seed: seed})
		if err != nil {
			return buildResult{}, err
		}
		pa, cd := t.TakeStats()
		return buildResult{idx: omniAdapter{t}, pa: pa, cd: cd,
			elapsed: time.Since(start), storage: t.StorageBytes()}, nil
	case "M-Index":
		t, err := mindex.Build(ds.Objects, mindex.Options{Distance: ds.Distance, Codec: ds.Codec, Seed: seed})
		if err != nil {
			return buildResult{}, err
		}
		pa, cd := t.TakeStats()
		return buildResult{idx: mindexAdapter{t}, pa: pa, cd: cd,
			elapsed: time.Since(start), storage: t.StorageBytes()}, nil
	}
	return buildResult{}, fmt.Errorf("unknown MAM %q", name)
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

// runRange measures averaged range queries (the paper's cold-cache
// protocol: counters reset and caches flushed before each query). Indexes
// exposing per-query stats are read from those; others fall back to the
// reset+delta counter protocol.
func runRange(idx searchIndex, queries []metric.Object, r float64) (measured, error) {
	var m measured
	qsi, hasQS := idx.(queryStatsIndex)
	for _, q := range queries {
		idx.ResetStats()
		if hasQS {
			_, qs, err := qsi.RangeStats(q, r)
			if err != nil {
				return m, err
			}
			m.t += qs.Elapsed
			m.pa += float64(qs.PageAccesses())
			m.cd += float64(qs.Compdists)
			continue
		}
		start := time.Now()
		if _, err := idx.RangeCount(q, r); err != nil {
			return m, err
		}
		m.t += time.Since(start)
		pa, cd := idx.Stats()
		m.pa += float64(pa)
		m.cd += float64(cd)
	}
	n := float64(len(queries))
	m.pa /= n
	m.cd /= n
	m.t /= time.Duration(len(queries))
	return m, nil
}

// runKNN measures averaged kNN queries, preferring per-query stats like
// runRange.
func runKNN(idx searchIndex, queries []metric.Object, k int) (measured, error) {
	var m measured
	qsi, hasQS := idx.(queryStatsIndex)
	for _, q := range queries {
		idx.ResetStats()
		if hasQS {
			_, qs, err := qsi.KNNStats(q, k)
			if err != nil {
				return m, err
			}
			m.t += qs.Elapsed
			m.pa += float64(qs.PageAccesses())
			m.cd += float64(qs.Compdists)
			continue
		}
		start := time.Now()
		if _, err := idx.KNNCount(q, k); err != nil {
			return m, err
		}
		m.t += time.Since(start)
		pa, cd := idx.Stats()
		m.pa += float64(pa)
		m.cd += float64(cd)
	}
	n := float64(len(queries))
	m.pa /= n
	m.cd /= n
	m.t /= time.Duration(len(queries))
	return m, nil
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
