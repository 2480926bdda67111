package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"spbtree/internal/core"
	"spbtree/internal/metric"
	"spbtree/internal/recall"
)

// workload is what the run protocol needs from an index and whatever is
// mounted in front of it.
type workload interface {
	// setup builds the index and starts everything a client talks to;
	// teardown stops it and removes its files. The protocol times setup.
	setup() error
	teardown() error
	// passOps returns the next pass's slice of the op sequence; a write names
	// a fresh object or the next toggle. knnQueries are the query objects of
	// the first slice's kNN reads.
	passOps() []op
	knnQueries() []metric.Object
	// do performs one client-visible operation. With stats it uses the entry
	// point that also returns QueryStats (the count pass and the ladder);
	// without, the one a client would call.
	do(ctx context.Context, o op, stats bool) (answer, error)
	// setSerial makes the index verify with one worker (or, off, its default
	// pool) where the harness can reach that setting. Answers and Compdists
	// are the same either way; the traversal-side counters repeat exactly
	// only without the parallel engine's timing.
	setSerial(on bool)
	// live returns the objects an exact answer must be drawn from right now.
	live() []metric.Object
	// storageBytes is what the index occupies: index, RAF and WAL.
	storageBytes() (int64, error)
	// notes states the conditions in force (flush policy, cache sizes, ...).
	notes() []string
	// ladder returns the traced run's rungs, innermost first, and a release
	// function for whatever reference structures they needed.
	ladder() ([]rung, func(), error)
	// layers adds the workload's own per-layer metrics from the ladder.
	layers(ctx context.Context, tr *tracer, lad ladderResult, m metrics) error
	// finish runs the checks that must come last (durability after reopen).
	finish(ctx context.Context, res *result)
}

// metrics maps a metric's name to its measurement.
type metrics map[string]measured

// result is one workload's outcome.
type result struct {
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Metrics   metrics  `json:"metrics"`
	Notes     []string `json:"notes,omitempty"`
}

func (r *result) check(ok bool) {
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

// runConfig is one invocation's arguments.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	// outDir receives trace files and holds the run's scratch directory.
	outDir string
}

// Set-up is repeated within a run and setup_s is the median, so one slow
// build (the first is always the slowest) does not decide it: setupReps times,
// or until setupBudget is spent, which holds the graph workload's six-second
// builds to two.
const (
	setupReps   = 9
	setupBudget = 10 * time.Second
)

// minPasses timed passes run even when -seconds is already spent.
const minPasses = 3

// clientCount is C: closed-loop clients and GOMAXPROCS.
func clientCount() int {
	c := runtime.NumCPU()
	if c > 4 {
		c = 4
	}
	return c
}

// runWorkload runs the whole protocol for one workload: inputs, set-up (timed,
// repeated), count pass with the oracle, warm-up pass, timed passes until
// cfg.seconds are spent, and on a traced run the ladder and open-loop steps.
func runWorkload(sp spec, cfg runConfig) (*result, error) {
	if cfg.smoke {
		sp = sp.smoke()
	}
	clients := clientCount()
	runtime.GOMAXPROCS(clients)
	ctx := context.Background()

	reads, fresh := sp.ops, 0
	if sp.cluster {
		reads, fresh = sp.ops-sp.ops/writeEvery, freshPool
	}
	in, err := makeInputs(sp.dataset, sp.n, reads*passSlices, fresh, cfg.seed)
	if err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	var w workload
	if sp.cluster {
		w = newClusterWorkload(sp, in, cfg.seed, scratch, clients, time.Duration(cfg.seconds/3*float64(time.Second)))
	} else {
		w = newTreeWorkload(sp, in, cfg.seed, scratch)
	}
	res := &result{Metrics: metrics{}}
	reps, passesWanted := setupReps, minPasses
	if cfg.smoke {
		reps, passesWanted = 1, 1
	}

	// Set-up, timed. Heap is read after a forced collection on either side of
	// the last repetition, so the dataset and earlier repetitions are excluded.
	var setupS []float64
	var heapBefore uint64
	defer w.teardown()
	setupStart := time.Now()
	for rep := 0; rep < reps && time.Since(setupStart) < setupBudget; rep++ {
		if rep > 0 {
			if err := w.teardown(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
		}
		heapBefore = heapAfterGC()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	heapAfter := heapAfterGC()
	res.Metrics["setup_s"] = ofSamples("s", setupS)
	res.Metrics["heap_mb"] = single("MB", (float64(heapAfter)-float64(heapBefore))/1e6)
	bytes, err := w.storageBytes()
	if err != nil {
		return nil, err
	}
	res.Metrics["bytes_per_user_byte"] = single("ratio", float64(bytes)/float64(in.payloadBytes))

	// Count pass: one client, serial, every scored answer checked.
	cnt := countPass(ctx, sp, in, w, res)
	res.Metrics["recall_at_10"] = single("ratio", meanOf(cnt.recall))

	// Warm-up pass, untimed, with the timed passes' concurrency: fills the
	// caches and lets the planner's unit costs settle under load.
	do := func(ctx context.Context, o op) (answer, error) { return w.do(ctx, o, false) }
	runClosed(ctx, clients, w.passOps(), do)

	// Timed passes.
	var passes []passResult
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for len(passes) < passesWanted || time.Now().Before(deadline) {
		p := runClosed(ctx, clients, w.passOps(), do)
		res.Attempted += int64(p.ops())
		res.Failed += int64(p.failed)
		passes = append(passes, p)
	}
	loadMetrics(passes, res.Metrics)

	if cfg.trace {
		if err := tracedPhase(ctx, sp, cfg, w, cnt, res); err != nil {
			return nil, err
		}
	}
	w.finish(ctx, res)
	res.Metrics["client.fail_ratio"] = single("ratio", float64(res.Failed)/float64(res.Attempted))
	res.Correct = res.Failed == 0
	res.Notes = append([]string{
		fmt.Sprintf("closed loop, %d clients, GOMAXPROCS %d, %d timed passes of %d ops, seed %d",
			clients, clients, len(passes), sp.ops, cfg.seed),
	}, w.notes()...)
	return res, nil
}

func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// loadMetrics turns the timed passes into the client-visible timing metrics.
// qps and the queue wait are computed per pass and reported as the median
// over the passes. A latency percentile is taken over the samples of all the
// passes together: the kNN latencies under load are spread flat from a fifth
// to twice their median, and the nearest-rank percentile of one pass's few
// dozen samples moved half as much again between seeds as that of the
// pooled several hundred. Its spread is estimated from the passes' own
// percentiles.
func loadMetrics(passes []passResult, m metrics) {
	var qps, queue []float64
	var pooled [numKinds][]float64
	perPass := map[float64]*[numKinds][]float64{50: {}, 95: {}, 99: {}}
	samples := 0
	for _, p := range passes {
		done := p.ops() - p.failed
		samples += done
		qps = append(qps, float64(done)/p.wall.Seconds())
		for kind, lat := range p.lat {
			if len(lat) == 0 {
				continue
			}
			pooled[kind] = append(pooled[kind], lat...)
			for pct, vals := range perPass {
				vals[kind] = append(vals[kind], percentile(lat, pct))
			}
		}
		if len(p.queueMS) > 0 {
			queue = append(queue, meanOf(p.queueMS))
		}
	}
	latency := func(kind opKind, pct float64) measured {
		return measured{Value: percentile(pooled[kind], pct), Unit: "ms",
			Spread: spreadOfMedian(perPass[pct][kind]), Samples: len(pooled[kind])}
	}
	m["qps"] = ofSamples("1/s", qps)
	m["knn_p50_ms"] = latency(opKNN, 50)
	m["knn_p95_ms"] = latency(opKNN, 95)
	m["client.knn_p99_ms"] = latency(opKNN, 99)
	m["client.range_p50_ms"] = latency(opRange, 50)
	m["client.range_p95_ms"] = latency(opRange, 95)
	m["client.range_p99_ms"] = latency(opRange, 99)
	m["client.write_p50_ms"] = latency(opWrite, 50)
	m["client.write_p95_ms"] = latency(opWrite, 95)
	m["client.write_p99_ms"] = latency(opWrite, 99)
	m["server.queue_wait_ms"] = ofSamples("ms", queue)
	m["client.samples"] = single("count", float64(samples))
}

// counters sums the QueryStats of one operation type over the count pass.
type counters struct {
	n  int
	qs core.QueryStats
	// planMS, filterMS and verifyMS sum the stage clocks; workers the
	// planner's grants; staged the two-stage scatters.
	planMS, filterMS, verifyMS float64
	workers, staged            int
	shardsTotal, shardsPruned  int
}

func (c *counters) add(qs core.QueryStats) {
	c.n++
	c.qs.Merge(qs) // sums every counter; its clocks and plan are not used
	c.planMS += ms(qs.PlanTime)
	c.filterMS += ms(qs.FilterTime)
	c.verifyMS += ms(qs.VerifyTime)
	c.workers += qs.Plan.Workers
	c.shardsTotal += qs.Plan.ShardsTotal
	c.shardsPruned += qs.Plan.ShardsPruned
	if qs.Plan.Staged {
		c.staged++
	}
}

// sumStats adds up the stats one ladder rung returned.
func sumStats(stats []core.QueryStats) counters {
	var c counters
	for _, qs := range stats {
		c.add(qs)
	}
	return c
}

func (c *counters) per(v int64) float64 { return ratio(float64(v), float64(c.n)) }

// frac is ratio for counts.
func frac(a, b int64) float64 { return ratio(float64(a), float64(b)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// countResult is what the count pass saw.
type countResult struct {
	knn, rng counters
	// recall is recall@10 of each scored kNN answer; tieAware the tie-blind
	// companion (distances only).
	recall, tieAware []float64
}

// countPass runs one pass with one client and one verifier. Counters are
// exact because nothing else runs on the index; every scored read is checked
// against the brute-force oracle over the objects live at that moment.
func countPass(ctx context.Context, sp spec, in inputs, w workload, res *result) countResult {
	w.setSerial(true)
	defer w.setSerial(false)
	var cr countResult
	dist := in.ds.Distance
	scored := 0
	for _, o := range w.passOps() {
		ans, err := w.do(ctx, o, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: count pass: %v\n", sp.name, err)
			res.check(false)
			continue
		}
		switch o.kind {
		case opWrite:
			res.check(true)
			continue
		case opRange:
			cr.rng.add(ans.qs)
		case opKNN:
			cr.knn.add(ans.qs)
		}
		if sp.scored > 0 && scored >= sp.scored {
			res.check(true)
			continue
		}
		scored++
		objs := w.live()
		if o.kind == opRange {
			res.check(sameRange(ans, oracleRange(dist, objs, o.obj, sp.radius)))
			continue
		}
		want := oracleKNN(dist, objs, o.obj, k)
		wantIDs := make([]uint64, len(want))
		for i, nb := range want {
			wantIDs[i] = nb.id
		}
		cr.recall = append(cr.recall, recall.AtK(wantIDs, ans.ids, k))
		if len(want) > 0 {
			cr.tieAware = append(cr.tieAware, recall.WithinKth(want[len(want)-1].dist, ans.dists, k))
		}
		if sp.graph {
			// An approximate answer may miss neighbours; it may not misstate
			// a distance, repeat an object or leave canonical order.
			res.check(validApprox(dist, in, o.obj, ans))
		} else {
			res.check(sameKNN(ans, want))
		}
	}
	return cr
}

// validApprox checks an approximate kNN answer for internal truth: k distinct
// indexed objects, each with its exact distance, in canonical order.
func validApprox(d metric.DistanceFunc, in inputs, q metric.Object, ans answer) bool {
	if len(ans.ids) != k {
		return false
	}
	for i, id := range ans.ids {
		if id >= uint64(len(in.indexed)) || d.Distance(q, in.indexed[id]) != ans.dists[i] {
			return false
		}
		if i > 0 && !(neighbor{ans.ids[i-1], ans.dists[i-1]}).before(neighbor{id, ans.dists[i]}) {
			return false
		}
	}
	return true
}

// tracedPhase is what -trace adds: the ladder, the per-layer metrics derived
// from it and from the count pass, and the span file.
func tracedPhase(ctx context.Context, sp spec, cfg runConfig, w workload, cnt countResult, res *result) error {
	rungs, release, err := w.ladder()
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	defer release()
	queries := w.knnQueries()
	queries = queries[:min(ladderQueries, len(queries))]
	// Every query climbs the ladder twice, once recording spans and once not,
	// in alternating order so that neither side always finds the caches the
	// other warmed. The ratio of the two is the price of tracing.
	tr := newTracer()
	lad, bare := newLadderResult(queries), newLadderResult(queries)
	for qi, q := range queries {
		first, second := tr, (*tracer)(nil)
		if qi%2 == 1 {
			first, second = second, first
		}
		for _, t := range []*tracer{first, second} {
			into := &lad
			if t == nil {
				into = &bare
			}
			if err := replay(ctx, t, sp.name, qi, q, rungs, into); err != nil {
				return err
			}
		}
	}
	top := rungs[len(rungs)-1].name
	m := res.Metrics
	var overhead []float64
	for qi := range queries {
		overhead = append(overhead, ratio(lad.ms[top][qi], bare.ms[top][qi]))
	}
	m["trace.overhead_ratio"] = single("ratio", median(overhead))

	n := float64(len(w.live()))
	for _, kern := range []string{"scalar", "bounded", "batch"} {
		m["metric."+kern+"_ns_per_compdist"] = single("ns", median(lad.ms["kernel."+kern])*1e6/n)
	}
	if err := w.layers(ctx, tr, lad, m); err != nil {
		return err
	}
	coreMetrics(cnt, lad, m)
	return tr.write(filepath.Join(cfg.outDir, "trace-"+sp.name+".json"))
}

// coreMetrics derives the core, bptree, raf, page and graph metrics: counts
// from the count pass, times and the planner's grants from the ladder's tree
// rung, which runs with the default verifier pool.
func coreMetrics(cnt countResult, lad ladderResult, m metrics) {
	kn, rg := cnt.knn, cnt.rng
	tr := sumStats(lad.stats["tree"])
	q := kn.qs
	treeMS := median(lad.ms["tree"])
	batchNS := m["metric.batch_ns_per_compdist"].Value
	m["core.knn_ms"] = single("ms", treeMS)
	m["core.plan_ms"] = single("ms", ratio(tr.planMS, float64(tr.n)))
	m["core.filter_ms"] = single("ms", ratio(tr.filterMS, float64(tr.n)))
	m["core.verify_ms"] = single("ms", ratio(tr.verifyMS, float64(tr.n)))
	m["core.compdists_per_op"] = single("count", kn.per(q.Compdists))
	m["core.range_compdists_per_op"] = single("count", rg.per(rg.qs.Compdists))
	m["core.verified_per_result"] = single("ratio", frac(q.Verified, int64(q.Results)))
	m["core.abandoned_ratio"] = single("ratio", frac(q.Abandoned, q.Verified))
	m["core.batched_ratio"] = single("ratio", frac(q.BatchedCandidates, q.Verified))
	m["core.lemma2_ratio_range"] = single("ratio", frac(rg.qs.Lemma2Included, int64(rg.qs.Results)))
	treeCD := tr.per(tr.qs.Compdists)
	// The innermost two self times: the distance evaluations the tree made,
	// priced at the batch kernel's flat-scan rate, and the rest of the tree.
	self := ladderSelf([]float64{treeCD * batchNS / 1e6, treeMS})
	m["metric.kernel_ms"] = single("ms", self[0])
	m["core.self_ms"] = single("ms", self[1])
	m["core.overhead_ns_per_compdist"] = single("ns", ratio(self[1]*1e6, treeCD))
	m["core.kernel_share"] = single("ratio", ratio(self[0], treeMS))
	m["core.parallel_speedup"] = single("ratio", ratio(median(lad.ms["tree.serial"]), treeMS))
	m["core.planned_workers_mean"] = single("count", ratio(float64(tr.workers), float64(tr.n)))
	m["core.delta_candidates_per_op"] = single("count", kn.per(q.DeltaCandidates))
	m["core.tombstones_skipped_per_op"] = single("count", kn.per(q.TombstonesSkipped))

	m["bptree.nodes_read_per_op"] = single("count", kn.per(q.NodesRead))
	m["bptree.nodes_pruned_ratio"] = single("ratio", frac(q.NodesPruned, q.NodesRead+q.NodesPruned))
	m["bptree.entries_scanned_per_op"] = single("count", kn.per(q.EntriesScanned))
	m["bptree.entries_pruned_ratio"] = single("ratio", frac(q.EntriesPruned, q.EntriesScanned))
	m["bptree.entries_skipped_ratio"] = single("ratio", frac(q.EntriesSkipped, q.EntriesScanned+q.EntriesSkipped))
	m["bptree.heap_pushes_per_op"] = single("count", kn.per(q.HeapPushes))
	m["bptree.index_pa_per_op"] = single("count", kn.per(q.IndexPA))

	m["raf.data_pa_per_op"] = single("count", kn.per(q.DataPA))
	m["raf.data_pa_per_verified"] = single("ratio", frac(q.DataPA, q.Verified))
	m["page.index_hit_ratio"] = single("ratio", frac(q.IndexCacheHits, q.IndexCacheHits+q.IndexPA))
	m["page.data_hit_ratio"] = single("ratio", frac(q.DataCacheHits, q.DataCacheHits+q.DataPA))

	m["graph.hops_per_op"] = single("count", kn.per(q.GraphHops))
	m["graph.candidates_per_op"] = single("count", kn.per(q.GraphCandidates))
	if q.GraphHops > 0 {
		m["graph.recall_tie_aware"] = single("ratio", meanOf(cnt.tieAware))
	}
}
