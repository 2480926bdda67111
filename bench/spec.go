package main

// k is the neighbour count of every kNN operation.
const k = 10

// spec fixes one workload. Every number here is a constant of the benchmark:
// op counts are counts, not durations, so that counters repeat exactly under
// one seed. They were calibrated once on the 2-core sandbox so that a pass
// lasts about two seconds, and then frozen.
type spec struct {
	name string
	// why is the one line BENCHMARK.json carries.
	why     string
	dataset string
	// n objects are indexed; ops operations make one pass of the sequence.
	n, ops int
	// radius is the range radius; 0 means the workload has no range ops and
	// every read is a kNN.
	radius float64
	// file puts the page stores in files; otherwise they are MemStores.
	file bool
	// cachePages is core.Options.CacheSize; 0 keeps the library default of 32.
	cachePages int
	// graph builds the NN-descent graph and answers kNN from it.
	graph bool
	// scored is how many of the pass's reads the oracle checks in the count
	// pass; 0 means all of them.
	scored int
	// cluster serves the index from three nodes behind a router and HTTP, and
	// makes every writeEvery-th op a write.
	cluster bool
}

// The mixed workload's constants.
const (
	// writeEvery makes one op in ten a write: 90 % kNN, 10 % writes.
	writeEvery = 10
	// clusterShards is the forest's partition count, spread over
	// clusterNodes nodes by the consistent-hash ring.
	clusterShards = 6
	// compactThreshold is DurableOptions.CompactThreshold per shard. A run
	// acks about a hundred writes, a dozen per shard; 4 lets background
	// compaction complete several cycles on every shard within it.
	compactThreshold = 4
	// togglePool is the number of indexed objects reserved for delete /
	// re-insert toggles; freshPool the number of held-out objects to insert.
	togglePool = 64
	freshPool  = 2048
	// ladderQueries is how many of the pass's kNN queries the traced ladder
	// replays at every boundary.
	ladderQueries = 30
	// passSlices is how many passes' worth of distinct reads are held out.
	// Every pass takes the next slice of the sequence, so a run's percentiles
	// rest on several hundred different queries instead of one pass's few
	// dozen; a run that outlasts the slices starts over at the first.
	passSlices = 8
)

// openRates are the open-loop steps' request rates R1 < R2 < R3 per second,
// calibrated once to about 25, 50 and 80 % of the closed-loop qps of the
// mixed workload on the 2-core sandbox (43/s) and frozen; openLimitMS is the
// p95-from-due a step must stay under to count as sustained.
var openRates = [3]float64{10, 20, 35}

const openLimitMS = 250

var clusterNodes = []string{"n1", "n2", "n3"}

var specs = []spec{
	{
		name:    "words-mem-exact",
		why:     "edit-distance kNN/range on an index that fits its buffer cache: kernels and verification do the work, pages and WAL none",
		dataset: "words", n: 20000, ops: 160, radius: 2, cachePages: 1024,
	},
	{
		name:    "color32-file-exact",
		why:     "cheap float32 L5 kernel on file stores 100x larger than the 32-page cache: B+-tree traversal, RAF fetch and page cache dominate",
		dataset: "color32", n: 100000, ops: 160, radius: 0.08, file: true,
	},
	{
		name:    "color32-ann",
		why:     "graph beam search answers and the B+-tree only seeds it, so exact-path changes must not move it; NN-descent build lands in setup_s",
		dataset: "color32", n: 20000, ops: 1200, graph: true, scored: 500,
	},
	{
		name:    "words-cluster-http-mixed",
		why:     "90% kNN + 10% durable writes over HTTP, router, wire, 3 nodes x 6 fsynced shards: the only path through server, cluster, forest, wal and the delta merge",
		dataset: "words", n: 20000, ops: 100, cluster: true,
	},
}

// smoke shrinks a spec to the -smoke configuration: a tenth of the objects
// and a short pass, enough to exercise every code path in a few seconds.
func (s spec) smoke() spec {
	s.n /= 10
	s.ops /= 4
	if s.scored > 0 {
		s.scored = s.ops / 4
	}
	return s
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a client of the system sees, reported by every
// workload on an untraced run; BENCHMARK.json fixes their bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"knn_p50_ms", "ms"},
	{"knn_p95_ms", "ms"},
	{"recall_at_10", "ratio"},
	{"bytes_per_user_byte", "ratio"},
	{"heap_mb", "MB"},
}

// perLayer are the single-layer metrics a traced run reports. A metric whose
// layer a workload bypasses reads 0 there.
var perLayer = []metricDef{
	{"metric.scalar_ns_per_compdist", "ns"},
	{"metric.bounded_ns_per_compdist", "ns"},
	{"metric.batch_ns_per_compdist", "ns"},
	{"metric.kernel_ms", "ms"},

	{"core.knn_ms", "ms"},
	{"core.self_ms", "ms"},
	{"core.plan_ms", "ms"},
	{"core.filter_ms", "ms"},
	{"core.verify_ms", "ms"},
	{"core.compdists_per_op", "count"},
	{"core.range_compdists_per_op", "count"},
	{"core.verified_per_result", "ratio"},
	{"core.abandoned_ratio", "ratio"},
	{"core.batched_ratio", "ratio"},
	{"core.lemma2_ratio_range", "ratio"},
	{"core.overhead_ns_per_compdist", "ns"},
	{"core.kernel_share", "ratio"},
	{"core.parallel_speedup", "ratio"},
	{"core.planned_workers_mean", "count"},
	{"core.edc_rel_err", "ratio"},
	{"core.epa_rel_err", "ratio"},
	{"core.delta_candidates_per_op", "count"},
	{"core.tombstones_skipped_per_op", "count"},
	{"core.compact_now_s", "s"},

	{"bptree.nodes_read_per_op", "count"},
	{"bptree.nodes_pruned_ratio", "ratio"},
	{"bptree.entries_scanned_per_op", "count"},
	{"bptree.entries_pruned_ratio", "ratio"},
	{"bptree.entries_skipped_ratio", "ratio"},
	{"bptree.heap_pushes_per_op", "count"},
	{"bptree.index_pa_per_op", "count"},

	{"raf.data_pa_per_op", "count"},
	{"raf.data_pa_per_verified", "ratio"},
	{"page.index_hit_ratio", "ratio"},
	{"page.data_hit_ratio", "ratio"},

	{"graph.build_s", "s"},
	{"graph.hops_per_op", "count"},
	{"graph.candidates_per_op", "count"},
	{"graph.recall_tie_aware", "ratio"},

	{"wal.batch_ratio", "ratio"},
	{"wal.syncs_per_append", "ratio"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"wal.tree_insert_ms", "ms"},

	{"forest.knn_ms", "ms"},
	{"forest.overhead_ms", "ms"},
	{"forest.scatter_efficiency", "ratio"},
	{"forest.compdists_inflation", "ratio"},
	{"forest.shards_pruned_ratio", "ratio"},
	{"forest.staged_ratio", "ratio"},

	{"cluster.knn_ms", "ms"},
	{"cluster.overhead_ms", "ms"},
	{"cluster.rpcs_per_op", "count"},
	{"cluster.insert_ms", "ms"},

	{"server.handler_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.http_knn_ms", "ms"},
	{"server.http_overhead_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.rejected_429_ratio", "ratio"},

	{"client.knn_p99_ms", "ms"},
	{"client.range_p50_ms", "ms"},
	{"client.range_p95_ms", "ms"},
	{"client.range_p99_ms", "ms"},
	{"client.write_p50_ms", "ms"},
	{"client.write_p95_ms", "ms"},
	{"client.write_p99_ms", "ms"},
	{"client.open_p50_ms", "ms"},
	{"client.open_p95_ms", "ms"},
	{"client.max_rate_ok", "1/s"},
	{"client.gen_late_p95_ms", "ms"},
	{"client.fail_ratio", "ratio"},
	{"client.samples", "count"},

	{"trace.overhead_ratio", "ratio"},
}
