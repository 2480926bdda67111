package core

import (
	"context"
	"runtime"
	"testing"

	"spbtree/internal/dataset"
)

// TestKNNAllocationBudget fails loudly when the exact read path starts
// allocating per node, block or candidate again (DESIGN.md §9.7): a warm,
// serial kNN may allocate the two objects each decoded candidate consists of
// (struct + payload) plus a constant — the answer slice, the prepared kernel,
// the sort — and no more than 1 MB. Before the borrowed page views and the
// pooled per-query scratch the same Words query took 24 172 allocations and
// 5.5 MB.
func TestKNNAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	const n, nq, k = 20000, 8, 10
	for _, name := range []string{"words", "color32"} {
		ds, _ := dataset.ByName(name, n+nq, 1)
		queries := ds.Objects[n:] // held out: no distance-0 hit on itself
		tree, err := Build(ds.Objects[:n], Options{Distance: ds.Distance, Codec: ds.Codec, CacheSize: 1024, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for _, q := range queries {
			_, qs, err := tree.KNNWithStatsCtx(ctx, q, k) // warms caches and the scratch pool
			if err != nil {
				t.Fatal(err)
			}
			const runs = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs := testing.AllocsPerRun(runs, func() {
				if _, err := tree.KNNCtx(ctx, q, k); err != nil {
					t.Fatal(err)
				}
			})
			runtime.ReadMemStats(&after)
			bytes := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun adds a warm-up run
			t.Logf("%s: %.0f allocs, %d verified, %d bytes", name, allocs, qs.Verified, bytes)
			if budget := float64(2*qs.Verified + 64); allocs > budget {
				t.Errorf("%s: %.0f allocations for %d verified candidates, budget %.0f", name, allocs, qs.Verified, budget)
			}
			if bytes > 1<<20 {
				t.Errorf("%s: %d bytes allocated per query, budget 1 MB", name, bytes)
			}
		}
		if err := tree.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
