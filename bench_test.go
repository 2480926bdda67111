// Benchmarks of the exact-kNN hot path — warm (caches filled) and cold (file
// stores far larger than their buffer caches) — and of the approximate tier's
// graph construction. They report ns/op, B/op and allocs/op for profiling;
// cmd/spbbench reproduces the paper's tables and figures.
package spbtree_test

import (
	"testing"

	"spbtree/internal/core"
	"spbtree/internal/dataset"
	"spbtree/internal/page"
)

const benchSeed = 1

func buildCoreTree(b *testing.B, ds dataset.Dataset, opts core.Options) *core.Tree {
	b.Helper()
	opts.Distance = ds.Distance
	opts.Codec = ds.Codec
	opts.Seed = benchSeed
	t, err := core.Build(ds.Objects, opts)
	if err != nil {
		b.Fatal(err)
	}
	return t
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

// BenchmarkBuildGraph — one NN-descent construction of the approximate tier
// (Color32, n = 20 000, default graph options) on GOMAXPROCS goroutines: the
// build that dominates the setup of a graph-serving index. Run it with
// -cpuprofile to see where construction spends its time.
func BenchmarkBuildGraph(b *testing.B) {
	const n = 20000
	ds, _ := dataset.ByName("color32", n, benchSeed)
	tree := buildCoreTree(b, ds, core.Options{})
	defer tree.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.BuildGraph(core.GraphOptions{Seed: benchSeed}); err != nil {
			b.Fatal(err)
		}
	}
}
