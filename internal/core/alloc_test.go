package core

import (
	"context"
	"runtime"
	"testing"

	"spbtree/internal/dataset"
	"spbtree/internal/page"
)

// TestKNNAllocationBudget fails loudly when the exact read path starts
// allocating per node, block, page or verified candidate again (DESIGN.md
// §9.7): a serial kNN may allocate the two objects (struct + payload) of each
// candidate it accepted — Verified − Abandoned of them, one in a hundred —
// plus a constant: the answer slice, the prepared kernel, the sort. Warm, on
// an index that fits its cache, that is at most 1 MB; cold, on file stores
// some sixty times a 32-page cache, at most 64 KB however many pages miss,
// because a miss reads into the frame it evicts. Before the borrowed page
// views and the pooled per-query scratch the warm Words query took 24 172
// allocations and 5.5 MB; before the recycled frames the cold Color32 query
// took 3 MB of page buffers.
func TestKNNAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	const n, nq, k = 20000, 8, 10
	for _, tc := range []struct {
		name, dataset string
		cacheSize     int
		onFiles       bool
		maxBytes      uint64
	}{
		{"words-warm", "words", 1024, false, 1 << 20},
		{"color32-warm", "color32", 1024, false, 1 << 20},
		{"color32-cold", "color32", 32, true, 64 << 10},
	} {
		ds, _ := dataset.ByName(tc.dataset, n+nq, 1)
		queries := ds.Objects[n:] // held out: no distance-0 hit on itself
		opts := Options{Distance: ds.Distance, Codec: ds.Codec, CacheSize: tc.cacheSize, Seed: 1}
		if tc.onFiles {
			for _, st := range []*page.Store{&opts.IndexStore, &opts.DataStore} {
				fs, err := page.NewTempFileStore()
				if err != nil {
					t.Fatal(err)
				}
				*st = fs
			}
		}
		tree, err := Build(ds.Objects[:n], opts)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for _, q := range queries {
			_, qs, err := tree.Query(ctx, Query{Op: OpKNN, Q: q, K: k, Timed: true}) // warms caches and the scratch pool
			if err != nil {
				t.Fatal(err)
			}
			if tc.onFiles && qs.DataPA < 20 {
				t.Fatalf("%s: %d data page accesses: the case is not cold", tc.name, qs.DataPA)
			}
			const runs = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs := testing.AllocsPerRun(runs, func() {
				if _, _, err := tree.Query(ctx, Query{Op: OpKNN, Q: q, K: k}); err != nil {
					t.Fatal(err)
				}
			})
			runtime.ReadMemStats(&after)
			bytes := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun adds a warm-up run
			accepted := qs.Verified - qs.Abandoned
			t.Logf("%s: %.0f allocs, %d verified, %d accepted, %d data PA, %d bytes", tc.name, allocs, qs.Verified, accepted, qs.DataPA, bytes)
			if budget := float64(2*accepted + 64); allocs > budget {
				t.Errorf("%s: %.0f allocations for %d accepted of %d verified candidates, budget %.0f", tc.name, allocs, accepted, qs.Verified, budget)
			}
			if bytes > tc.maxBytes {
				t.Errorf("%s: %d bytes allocated per query, budget %d", tc.name, bytes, tc.maxBytes)
			}
		}
		if err := tree.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
