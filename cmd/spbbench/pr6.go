package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"spbtree/internal/core"
	"spbtree/internal/dataset"
	"spbtree/internal/metric"
)

// pr6 benchmarks the durable write path (DESIGN.md §11) on the edit-distance
// workloads: a group-committed WAL absorbing inserts/deletes into an
// in-memory delta while queries keep flowing. Two experiment families:
//
//   - Mixed read/write workloads (95/5 and 50/50) on Words and DNAEdit:
//     harness goroutines interleave warm 8-NN queries with delete/re-insert
//     toggles over a partitioned object pool, reporting acked-write latency
//     percentiles, read-latency percentiles versus an all-read baseline at
//     the same concurrency, and the WAL's group-commit batching ratio.
//
//   - Pure write throughput on Words: acked writes/sec versus writer
//     concurrency (1, 4, 16), with the WAL fsync on and off — the cost of
//     durability and the batching the group commit wins back under load.
//
// The run doubles as a correctness gate: every operation must succeed, and
// after each mix the pool is restored, the delta folded down with
// CompactNow, and the live count checked against the dataset cardinality —
// a mixed workload that loses or duplicates a write fails the experiment.
//
// With -json FILE it writes the machine-readable BENCH_PR6.json report.
func pr6(cfg config) error {
	header(cfg.out, "PR6: durable write path, mixed read/write workloads")
	workers := cfg.workers
	if workers == 0 {
		workers = 8
	}
	report := pr6Report{
		N: cfg.n, Queries: cfg.queries, K: 8, Workers: workers,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	fmt.Fprintf(cfg.out, "%-10s %-6s %10s %10s %10s %10s %10s %8s\n",
		"dataset", "mix", "read p50", "read p95", "write p50", "write p95", "write p99", "batch")
	for _, name := range []string{"words", "dnaedit"} {
		ds := scaledDataset(cfg, name)
		dir, err := os.MkdirTemp("", "spbbench-pr6-")
		if err != nil {
			return err
		}
		tree, err := core.CreateDurable(dir, ds.Objects, core.Options{
			Distance: ds.Distance, Codec: ds.Codec, Seed: cfg.seed,
		}, core.DurableOptions{})
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		queries := ds.Queries(cfg.queries)
		totalOps := cfg.queries * 32

		// All-read baseline at the same harness concurrency: the denominator
		// of the read-degradation ratio.
		base, err := pr6Mixed(tree, ds, queries, workers, totalOps, 0, cfg.seed)
		if err != nil {
			tree.Close()
			os.RemoveAll(dir)
			return err
		}

		for _, pct := range []int{5, 50} {
			m, err := pr6Mixed(tree, ds, queries, workers, totalOps, pct, cfg.seed)
			if err != nil {
				tree.Close()
				os.RemoveAll(dir)
				return err
			}
			m.Dataset = ds.Name
			m.BaselineReadP50us, m.BaselineReadP95us = base.ReadP50us, base.ReadP95us
			if base.ReadP50us > 0 {
				m.ReadDegradation = m.ReadP50us / base.ReadP50us
			}
			report.Mixes = append(report.Mixes, m)
			fmt.Fprintf(cfg.out, "%-10s %2d%%wr %8.0fµs %8.0fµs %8.0fµs %8.0fµs %8.0fµs %7.1fx\n",
				ds.Name, pct, m.ReadP50us, m.ReadP95us, m.WriteP50us, m.WriteP95us, m.WriteP99us, m.BatchRatio)
		}
		tree.Close()
		os.RemoveAll(dir)
	}

	// Pure write throughput: Words, writer fan-in 1/4/16, fsync on and off.
	fmt.Fprintf(cfg.out, "%-10s %8s %7s %12s %10s %8s\n",
		"dataset", "writers", "fsync", "acked/s", "write p50", "batch")
	ds := scaledDataset(cfg, "words")
	for _, fsync := range []bool{true, false} {
		dir, err := os.MkdirTemp("", "spbbench-pr6-")
		if err != nil {
			return err
		}
		tree, err := core.CreateDurable(dir, ds.Objects, core.Options{
			Distance: ds.Distance, Codec: ds.Codec, Seed: cfg.seed,
		}, core.DurableOptions{NoSync: !fsync})
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		for _, writers := range []int{1, 4, 16} {
			tp, err := pr6Throughput(tree, ds, writers, 300)
			if err != nil {
				tree.Close()
				os.RemoveAll(dir)
				return err
			}
			tp.Dataset, tp.Fsync = ds.Name, fsync
			report.Throughput = append(report.Throughput, tp)
			fmt.Fprintf(cfg.out, "%-10s %8d %7v %12.0f %8.0fµs %7.1fx\n",
				ds.Name, writers, fsync, tp.AckedPerSec, tp.WriteP50us, tp.BatchRatio)
		}
		tree.Close()
		os.RemoveAll(dir)
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

// pr6Report is the BENCH_PR6.json schema.
type pr6Report struct {
	N          int `json:"n"`
	Queries    int `json:"queries"`
	K          int `json:"k"`
	Workers    int `json:"workers"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// Mixes holds one entry per (dataset, write-percentage) cell.
	Mixes []pr6MixEntry `json:"mixes"`
	// Throughput holds the acked-writes/sec table (writer fan-in × fsync).
	Throughput []pr6ThroughputEntry `json:"write_throughput"`
}

// pr6MixEntry is one mixed-workload measurement.
type pr6MixEntry struct {
	Dataset  string `json:"dataset"`
	WritePct int    `json:"write_pct"`
	Reads    int    `json:"reads"`
	Writes   int    `json:"writes"`
	// Read latency under the mix, and under the all-read baseline at the
	// same concurrency; ReadDegradation is their p50 ratio.
	ReadP50us         float64 `json:"read_p50_us"`
	ReadP95us         float64 `json:"read_p95_us"`
	BaselineReadP50us float64 `json:"baseline_read_p50_us"`
	BaselineReadP95us float64 `json:"baseline_read_p95_us"`
	ReadDegradation   float64 `json:"read_degradation_p50"`
	// Acked-write latency percentiles: Insert/Delete wall time including the
	// group-commit wait for the WAL fsync.
	WriteP50us float64 `json:"write_p50_us"`
	WriteP95us float64 `json:"write_p95_us"`
	WriteP99us float64 `json:"write_p99_us"`
	// WAL counters over the mix; BatchRatio is appends per group commit.
	WALAppends int64   `json:"wal_appends"`
	WALBatches int64   `json:"wal_batches"`
	BatchRatio float64 `json:"batch_ratio"`
	// DeltaAfter is the write-buffer size when the mix finished (before the
	// verification CompactNow).
	DeltaAfter int `json:"delta_after"`
}

// pr6ThroughputEntry is one pure-write throughput measurement.
type pr6ThroughputEntry struct {
	Dataset     string  `json:"dataset"`
	Writers     int     `json:"writers"`
	Fsync       bool    `json:"fsync"`
	Writes      int     `json:"writes"`
	AckedPerSec float64 `json:"acked_per_sec"`
	WriteP50us  float64 `json:"write_p50_us"`
	WriteP99us  float64 `json:"write_p99_us"`
	BatchRatio  float64 `json:"batch_ratio"`
}

// pr6Mixed runs one mixed workload: `workers` goroutines each execute
// totalOps/workers operations, each a warm 8-NN query or — with probability
// writePct% — a delete/re-insert toggle over the worker's private slice of
// the object pool (private so concurrent deletes never race on one id).
// Afterwards every deleted object is restored, the delta folded down with
// CompactNow, and the live count checked against the dataset cardinality.
func pr6Mixed(tree *core.Tree, ds dataset.Dataset, queries []metric.Object, workers, totalOps, writePct int, seed int64) (pr6MixEntry, error) {
	var e pr6MixEntry
	e.WritePct = writePct

	// The write pool: up to a fifth of the dataset, split across workers.
	poolSize := len(ds.Objects) / 5
	if poolSize < workers {
		poolSize = workers
	}
	pool := ds.Objects[:poolSize]
	per := totalOps / workers

	ws, _ := tree.WALStats()
	startAppends, startBatches := ws.Appends, ws.Batches

	type lane struct {
		reads, writes []float64 // latencies, µs
		deleted       []metric.Object
		err           error
	}
	lanes := make([]lane, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ln := &lanes[w]
			rng := rand.New(rand.NewSource(seed + int64(w)*7919))
			mine := pool[w*len(pool)/workers : (w+1)*len(pool)/workers]
			next := 0
			gone := map[int]bool{}
			for i := 0; i < per; i++ {
				if writePct > 0 && rng.Intn(100) < writePct {
					j := next % len(mine)
					next++
					start := time.Now()
					var err error
					if gone[j] {
						err = tree.Insert(mine[j])
					} else {
						err = tree.Delete(mine[j])
					}
					ln.writes = append(ln.writes, float64(time.Since(start).Microseconds()))
					if err != nil {
						ln.err = fmt.Errorf("worker %d op %d: %w", w, i, err)
						return
					}
					gone[j] = !gone[j]
				} else {
					q := queries[(w*per+i)%len(queries)]
					start := time.Now()
					if _, err := tree.KNN(q, 8); err != nil {
						ln.err = fmt.Errorf("worker %d query %d: %w", w, i, err)
						return
					}
					ln.reads = append(ln.reads, float64(time.Since(start).Microseconds()))
				}
			}
			for j, g := range gone {
				if g {
					ln.deleted = append(ln.deleted, mine[j])
				}
			}
		}(w)
	}
	wg.Wait()

	var reads, writes []float64
	var deleted []metric.Object
	for i := range lanes {
		if lanes[i].err != nil {
			return e, lanes[i].err
		}
		reads = append(reads, lanes[i].reads...)
		writes = append(writes, lanes[i].writes...)
		deleted = append(deleted, lanes[i].deleted...)
	}
	e.Reads, e.Writes = len(reads), len(writes)
	e.ReadP50us, e.ReadP95us = pr6Pct(reads, 50), pr6Pct(reads, 95)
	e.WriteP50us, e.WriteP95us, e.WriteP99us = pr6Pct(writes, 50), pr6Pct(writes, 95), pr6Pct(writes, 99)
	e.DeltaAfter = tree.DeltaLen()
	if ws, ok := tree.WALStats(); ok {
		e.WALAppends, e.WALBatches = ws.Appends-startAppends, ws.Batches-startBatches
		if e.WALBatches > 0 {
			e.BatchRatio = float64(e.WALAppends) / float64(e.WALBatches)
		}
	}

	// Restore, fold, verify: the workload must conserve the live set.
	for _, o := range deleted {
		if err := tree.Insert(o); err != nil {
			return e, fmt.Errorf("pr6: restore %d: %w", o.ID(), err)
		}
	}
	if err := tree.CompactNow(); err != nil {
		return e, fmt.Errorf("pr6: compact after mix: %w", err)
	}
	if got := tree.Len(); got != len(ds.Objects) {
		return e, fmt.Errorf("pr6: %s %d%%wr: %d live objects after restore+compact, want %d — a write was lost or duplicated",
			ds.Name, writePct, got, len(ds.Objects))
	}
	return e, nil
}

// pr6Throughput hammers the tree with pure writes: each writer toggles
// delete/re-insert over its private pool slice as fast as acknowledgements
// come back, then the pool is restored and the delta compacted.
func pr6Throughput(tree *core.Tree, ds dataset.Dataset, writers, perWriter int) (pr6ThroughputEntry, error) {
	var e pr6ThroughputEntry
	e.Writers, e.Writes = writers, writers*perWriter
	poolSize := len(ds.Objects) / 5
	if poolSize < writers {
		poolSize = writers
	}
	pool := ds.Objects[:poolSize]

	ws, _ := tree.WALStats()
	startAppends, startBatches := ws.Appends, ws.Batches

	lat := make([][]float64, writers)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := pool[w*len(pool)/writers : (w+1)*len(pool)/writers]
			gone := make([]bool, len(mine))
			for i := 0; i < perWriter; i++ {
				j := i % len(mine)
				opStart := time.Now()
				var err error
				if gone[j] {
					err = tree.Insert(mine[j])
				} else {
					err = tree.Delete(mine[j])
				}
				lat[w] = append(lat[w], float64(time.Since(opStart).Microseconds()))
				if err != nil {
					errs[w] = fmt.Errorf("writer %d op %d: %w", w, i, err)
					return
				}
				gone[j] = !gone[j]
			}
			// Restore this writer's pool slice inline (unmeasured).
			for j, g := range gone {
				if g {
					if err := tree.Insert(mine[j]); err != nil {
						errs[w] = fmt.Errorf("writer %d restore: %w", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []float64
	for w := range lat {
		if errs[w] != nil {
			return e, errs[w]
		}
		all = append(all, lat[w]...)
	}
	e.AckedPerSec = float64(e.Writes) / elapsed.Seconds()
	e.WriteP50us, e.WriteP99us = pr6Pct(all, 50), pr6Pct(all, 99)
	if ws, ok := tree.WALStats(); ok {
		appends, batches := ws.Appends-startAppends, ws.Batches-startBatches
		if batches > 0 {
			e.BatchRatio = float64(appends) / float64(batches)
		}
	}
	if err := tree.CompactNow(); err != nil {
		return e, fmt.Errorf("pr6: compact after throughput run: %w", err)
	}
	if got := tree.Len(); got != len(ds.Objects) {
		return e, fmt.Errorf("pr6: throughput writers=%d: %d live objects after restore+compact, want %d",
			writers, got, len(ds.Objects))
	}
	return e, nil
}

// pr6Pct returns the p-th percentile of xs (nearest-rank on a sorted copy).
func pr6Pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p / 100 * float64(len(s)-1))
	return s[i]
}
