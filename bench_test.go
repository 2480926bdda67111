// Benchmarks regenerating the paper's evaluation as testing.B targets — one
// benchmark family per table/figure, each reporting the paper's metrics as
// custom units: PA/op (page accesses) and dists/op (distance computations)
// alongside Go's ns/op. The cmd/spbbench harness prints the same experiments
// as full tables; these benches are the `go test -bench=.` entry points
// DESIGN.md §4 references.
package spbtree_test

import (
	"context"
	"fmt"
	"testing"

	"spbtree/internal/core"
	"spbtree/internal/dataset"
	"spbtree/internal/join"
	"spbtree/internal/metric"
	"spbtree/internal/mindex"
	"spbtree/internal/mtree"
	"spbtree/internal/omni"
	"spbtree/internal/page"
	"spbtree/internal/pivot"
	"spbtree/internal/sfc"
)

const (
	benchN    = 4000 // objects per dataset (the paper uses 112K-1M)
	benchSeed = 1
)

// queryCycler hands out query objects round-robin.
type queryCycler struct {
	qs []metric.Object
	i  int
}

func (c *queryCycler) next() metric.Object {
	q := c.qs[c.i%len(c.qs)]
	c.i++
	return q
}

func buildCoreTree(b *testing.B, ds dataset.Dataset, opts core.Options) *core.Tree {
	b.Helper()
	opts.Distance = ds.Distance
	opts.Codec = ds.Codec
	if opts.Seed == 0 {
		opts.Seed = benchSeed
	}
	t, err := core.Build(ds.Objects, opts)
	if err != nil {
		b.Fatal(err)
	}
	return t
}

// reportSPB runs fn b.N times against tree and reports PA and dists per op.
func reportSPB(b *testing.B, tree *core.Tree, fn func(q metric.Object) error, qs []metric.Object) {
	b.Helper()
	cyc := &queryCycler{qs: qs}
	var pa, cd int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.ResetStats()
		if err := fn(cyc.next()); err != nil {
			b.Fatal(err)
		}
		s := tree.TakeStats()
		pa += s.PageAccesses
		cd += s.DistanceComputations
	}
	b.ReportMetric(float64(pa)/float64(b.N), "PA/op")
	b.ReportMetric(float64(cd)/float64(b.N), "dists/op")
}

// BenchmarkTable4SFC — Table 4: kNN (k=8) under the Hilbert vs Z-order
// curve.
func BenchmarkTable4SFC(b *testing.B) {
	for _, dsName := range []string{"color", "words"} {
		ds, _ := dataset.ByName(dsName, benchN, benchSeed)
		for _, kind := range []sfc.Kind{sfc.Hilbert, sfc.ZOrder} {
			b.Run(fmt.Sprintf("%s/%v", ds.Name, kind), func(b *testing.B) {
				tree := buildCoreTree(b, ds, core.Options{Curve: kind})
				reportSPB(b, tree, func(q metric.Object) error {
					_, err := tree.KNN(q, 8)
					return err
				}, ds.Queries(100))
			})
		}
	}
}

// BenchmarkFig9Pivots — Fig. 9: pivot selection methods at the default
// |P| = 5, kNN k=8 on Color.
func BenchmarkFig9Pivots(b *testing.B) {
	ds, _ := dataset.ByName("color", benchN, benchSeed)
	for _, sel := range []pivot.Selector{pivot.HFI{}, pivot.HF{}, pivot.Spacing{}, pivot.PCA{}} {
		b.Run(sel.Name(), func(b *testing.B) {
			tree := buildCoreTree(b, ds, core.Options{Selector: sel})
			reportSPB(b, tree, func(q metric.Object) error {
				_, err := tree.KNN(q, 8)
				return err
			}, ds.Queries(100))
		})
	}
}

// BenchmarkFig10Cache — Fig. 10: kNN under varying buffer-cache sizes.
func BenchmarkFig10Cache(b *testing.B) {
	ds, _ := dataset.ByName("color", benchN, benchSeed)
	for _, cache := range []int{-1, 8, 32, 128} {
		name := fmt.Sprintf("cache=%d", cache)
		if cache < 0 {
			name = "cache=0"
		}
		b.Run(name, func(b *testing.B) {
			tree := buildCoreTree(b, ds, core.Options{CacheSize: cache})
			reportSPB(b, tree, func(q metric.Object) error {
				_, err := tree.KNN(q, 8)
				return err
			}, ds.Queries(100))
		})
	}
}

// BenchmarkFig11Delta — Fig. 11: kNN under varying δ granularity.
func BenchmarkFig11Delta(b *testing.B) {
	ds, _ := dataset.ByName("synthetic", benchN, benchSeed)
	for _, delta := range []float64{0.001, 0.005, 0.009} {
		b.Run(fmt.Sprintf("delta=%.3f", delta), func(b *testing.B) {
			tree := buildCoreTree(b, ds, core.Options{DeltaFrac: delta})
			reportSPB(b, tree, func(q metric.Object) error {
				_, err := tree.KNN(q, 8)
				return err
			}, ds.Queries(100))
		})
	}
}

// mtreeFamily is the two competitors internal/mtree provides: the PM-tree is
// the M-tree with hyper-rings to 4 global pivots.
var mtreeFamily = []struct {
	name   string
	pivots int
}{{"M-tree", 0}, {"PM-tree", 4}}

// BenchmarkTable6Build — Table 6: construction of each MAM.
func BenchmarkTable6Build(b *testing.B) {
	ds, _ := dataset.ByName("color", benchN, benchSeed)
	b.Run("SPB-tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Build(ds.Objects, core.Options{
				Distance: ds.Distance, Codec: ds.Codec, Seed: benchSeed,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, m := range mtreeFamily {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := mtree.New(mtree.Options{Distance: ds.Distance, Codec: ds.Codec, Seed: benchSeed, Pivots: m.pivots})
				if err != nil {
					b.Fatal(err)
				}
				if err := t.BulkLoad(ds.Objects); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("OmniR-tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := omni.Build(ds.Objects, omni.Options{Distance: ds.Distance, Codec: ds.Codec, Seed: benchSeed}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("M-Index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mindex.Build(ds.Objects, mindex.Options{Distance: ds.Distance, Codec: ds.Codec, Seed: benchSeed}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable7Update — Table 7: single-object insertion into each MAM.
func BenchmarkTable7Update(b *testing.B) {
	ds, _ := dataset.ByName("words", benchN, benchSeed)
	extra := dataset.Words(100000, benchSeed+999)
	b.Run("SPB-tree", func(b *testing.B) {
		tree := buildCoreTree(b, ds, core.Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o := extra.Objects[i%len(extra.Objects)].(*metric.Str)
			if err := tree.Insert(metric.NewStr(uint64(1_000_000+i), o.S)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("M-tree", func(b *testing.B) {
		t, err := mtree.New(mtree.Options{Distance: ds.Distance, Codec: ds.Codec, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		if err := t.BulkLoad(ds.Objects); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o := extra.Objects[i%len(extra.Objects)].(*metric.Str)
			if err := t.Insert(metric.NewStr(uint64(1_000_000+i), o.S)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig12Range — Fig. 12: range queries across the five MAMs at the
// default radius (8% of d+).
func BenchmarkFig12Range(b *testing.B) {
	ds, _ := dataset.ByName("color", benchN, benchSeed)
	r := 0.08 * ds.Distance.MaxDistance()
	qs := ds.Queries(100)
	b.Run("SPB-tree", func(b *testing.B) {
		tree := buildCoreTree(b, ds, core.Options{})
		reportSPB(b, tree, func(q metric.Object) error {
			_, err := tree.RangeQuery(q, r)
			return err
		}, qs)
	})
	for _, m := range mtreeFamily {
		b.Run(m.name, func(b *testing.B) {
			t, err := mtree.New(mtree.Options{Distance: ds.Distance, Codec: ds.Codec, Seed: benchSeed, Pivots: m.pivots})
			if err != nil {
				b.Fatal(err)
			}
			if err := t.BulkLoad(ds.Objects); err != nil {
				b.Fatal(err)
			}
			cyc := &queryCycler{qs: qs}
			var pa, cd int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.ResetStats()
				if _, err := t.RangeQuery(cyc.next(), r); err != nil {
					b.Fatal(err)
				}
				p, c := t.TakeStats()
				pa += p
				cd += c
			}
			b.ReportMetric(float64(pa)/float64(b.N), "PA/op")
			b.ReportMetric(float64(cd)/float64(b.N), "dists/op")
		})
	}
	b.Run("OmniR-tree", func(b *testing.B) {
		t, err := omni.Build(ds.Objects, omni.Options{Distance: ds.Distance, Codec: ds.Codec, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		cyc := &queryCycler{qs: qs}
		var pa, cd int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.ResetStats()
			if _, err := t.RangeQuery(cyc.next(), r); err != nil {
				b.Fatal(err)
			}
			p, c := t.TakeStats()
			pa += p
			cd += c
		}
		b.ReportMetric(float64(pa)/float64(b.N), "PA/op")
		b.ReportMetric(float64(cd)/float64(b.N), "dists/op")
	})
	b.Run("M-Index", func(b *testing.B) {
		t, err := mindex.Build(ds.Objects, mindex.Options{Distance: ds.Distance, Codec: ds.Codec, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		cyc := &queryCycler{qs: qs}
		var pa, cd int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.ResetStats()
			if _, err := t.RangeQuery(cyc.next(), r); err != nil {
				b.Fatal(err)
			}
			p, c := t.TakeStats()
			pa += p
			cd += c
		}
		b.ReportMetric(float64(pa)/float64(b.N), "PA/op")
		b.ReportMetric(float64(cd)/float64(b.N), "dists/op")
	})
}

// BenchmarkFig13KNN — Fig. 13: kNN across k values on the SPB-tree.
func BenchmarkFig13KNN(b *testing.B) {
	ds, _ := dataset.ByName("color", benchN, benchSeed)
	tree := buildCoreTree(b, ds, core.Options{})
	for _, k := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			reportSPB(b, tree, func(q metric.Object) error {
				_, err := tree.KNN(q, k)
				return err
			}, ds.Queries(100))
		})
	}
}

// BenchmarkFig14Scalability — Fig. 14: SPB-tree kNN vs cardinality.
func BenchmarkFig14Scalability(b *testing.B) {
	for _, n := range []int{2000, 4000, 8000} {
		ds := dataset.Synthetic(n, benchSeed)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tree := buildCoreTree(b, ds, core.Options{})
			reportSPB(b, tree, func(q metric.Object) error {
				_, err := tree.KNN(q, 8)
				return err
			}, ds.Queries(100))
		})
	}
}

// BenchmarkFig15CostModel — Figs. 15/16: cost-model estimation throughput.
func BenchmarkFig15CostModel(b *testing.B) {
	ds, _ := dataset.ByName("color", benchN, benchSeed)
	tree := buildCoreTree(b, ds, core.Options{})
	r := 0.08 * ds.Distance.MaxDistance()
	qs := ds.Queries(100)
	b.Run("range", func(b *testing.B) {
		cyc := &queryCycler{qs: qs}
		for i := 0; i < b.N; i++ {
			if _, err := tree.EstimateRange(cyc.next(), r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("knn", func(b *testing.B) {
		cyc := &queryCycler{qs: qs}
		for i := 0; i < b.N; i++ {
			if _, err := tree.EstimateKNN(cyc.next(), 8); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig17Join — Fig. 17: the three similarity joins at ε = 6% of d+.
func BenchmarkFig17Join(b *testing.B) {
	ds, _ := dataset.ByName("color", benchN, benchSeed)
	half := len(ds.Objects) / 2
	Q, O := ds.Objects[:half], ds.Objects[half:]
	eps := 0.06 * ds.Distance.MaxDistance()

	b.Run("SPB-tree-SJA", func(b *testing.B) {
		tq := buildCoreTree(b, dataset.Dataset{Name: ds.Name, Objects: Q, Distance: ds.Distance, Codec: ds.Codec},
			core.Options{Curve: sfc.ZOrder})
		to, err := core.Build(O, core.Options{
			Distance: ds.Distance, Codec: ds.Codec, Curve: sfc.ZOrder, ShareMapping: tq,
		})
		if err != nil {
			b.Fatal(err)
		}
		var pa, cd int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, qs, err := core.Join(context.Background(), tq, to, eps)
			if err != nil {
				b.Fatal(err)
			}
			pa += qs.PageAccesses()
			cd += qs.Compdists
		}
		b.ReportMetric(float64(pa)/float64(b.N), "PA/op")
		b.ReportMetric(float64(cd)/float64(b.N), "dists/op")
	})
	b.Run("Quickjoin", func(b *testing.B) {
		counter := metric.NewCounter(ds.Distance)
		var cd int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			counter.Reset()
			qj := &join.Quickjoin{Dist: counter, Seed: benchSeed}
			qj.Join(Q, O, eps)
			cd += counter.Count()
		}
		b.ReportMetric(float64(cd)/float64(b.N), "dists/op")
	})
	b.Run("eD-index", func(b *testing.B) {
		ed, err := join.BuildED(Q, O, join.EDOptions{
			Distance: ds.Distance, Codec: ds.Codec, Eps0: eps, Seed: benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		var pa, cd int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ed.ResetStats()
			if _, err := ed.Join(eps, false); err != nil {
				b.Fatal(err)
			}
			p, c := ed.TakeStats()
			pa += p
			cd += c
		}
		b.ReportMetric(float64(pa)/float64(b.N), "PA/op")
		b.ReportMetric(float64(cd)/float64(b.N), "dists/op")
	})
}

// BenchmarkFig18JoinCostModel — Fig. 18: join cost estimation throughput.
func BenchmarkFig18JoinCostModel(b *testing.B) {
	ds, _ := dataset.ByName("color", benchN, benchSeed)
	half := len(ds.Objects) / 2
	tq := buildCoreTree(b, dataset.Dataset{Name: ds.Name, Objects: ds.Objects[:half], Distance: ds.Distance, Codec: ds.Codec},
		core.Options{Curve: sfc.ZOrder})
	to, err := core.Build(ds.Objects[half:], core.Options{
		Distance: ds.Distance, Codec: ds.Codec, Curve: sfc.ZOrder, ShareMapping: tq,
	})
	if err != nil {
		b.Fatal(err)
	}
	eps := 0.06 * ds.Distance.MaxDistance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimateJoin(tq, to, eps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKNNWarm — the warm exact-kNN hot path (k = 10, n = 20 000, queries
// held out of the index, caches filled); allocs/op and B/op are the numbers
// the allocation-budget test in internal/core gates.
func BenchmarkKNNWarm(b *testing.B) {
	const n, nq = 20000, 64
	for _, dsName := range []string{"words", "color32"} {
		ds, _ := dataset.ByName(dsName, n+nq, benchSeed)
		queries := ds.Objects[n:]
		ds.Objects = ds.Objects[:n]
		tree := buildCoreTree(b, ds, core.Options{CacheSize: 1024})
		b.Run(dsName, func(b *testing.B) {
			for _, q := range queries { // warm caches
				if _, err := tree.KNN(q, 10); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tree.KNN(queries[i%nq], 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKNNCold — the same query on an index some sixty times its buffer
// cache (Color32, n = 20 000, file stores, 32-page caches): most data pages
// of a query miss, and B/op shows whether a miss still costs a page buffer.
func BenchmarkKNNCold(b *testing.B) {
	const n, nq = 20000, 64
	ds, _ := dataset.ByName("color32", n+nq, benchSeed)
	queries := ds.Objects[n:]
	ds.Objects = ds.Objects[:n]
	var opts core.Options
	opts.CacheSize = 32
	for _, st := range []*page.Store{&opts.IndexStore, &opts.DataStore} {
		fs, err := page.NewTempFileStore()
		if err != nil {
			b.Fatal(err)
		}
		*st = fs
	}
	tree := buildCoreTree(b, ds, opts)
	defer tree.Close()
	for _, q := range queries { // fill the caches and the scratch pool
		if _, err := tree.KNN(q, 10); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.KNN(queries[i%nq], 10); err != nil {
			b.Fatal(err)
		}
	}
}
