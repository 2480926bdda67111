package core

import (
	"time"

	"spbtree/internal/obs"
)

// Operation names used for QueryStats.Op and the aggregate metrics registry.
const (
	// OpRange labels range queries (Algorithm 1).
	OpRange = "range"
	// OpKNN labels exact kNN queries (Algorithm 2).
	OpKNN = "knn"
	// OpJoin labels similarity joins (Algorithm 3).
	OpJoin = "join"
	// OpKNNGraph labels approximate kNN queries answered by beam search over
	// the NN-descent graph tier (DESIGN.md §14).
	OpKNNGraph = "knn_graph"
)

// QueryStats records a single query's cost, stage by stage, in the paper's
// metrics: distance computations ("compdists") and page accesses ("PA",
// split into B+-tree index pages and RAF data pages), plus the per-stage
// pruning counts that explain them. DESIGN.md §7 defines every counter and
// maps it to the paper's tables and figures.
//
// Counts are exact and race-free (incremented at the algorithm's own call
// sites); the I/O fields are before/after deltas of the shared store
// counters, so attributing them to one query assumes no other query runs on
// the tree concurrently. On a partial-result error the stats cover the work
// done up to the failure.
//
// A query runs on its caller's goroutine (DESIGN.md §9), so the stage clocks
// partition Elapsed.
type QueryStats struct {
	// Op identifies the operation: OpRange, OpKNN, OpKNNGraph or OpJoin.
	Op string

	// Plan records how a scatter-gather query visited its shards (plan.go):
	// the forest/cluster gather side fills it; zero on a single tree.
	Plan PlanInfo

	// --- filtering stage (index traversal, no objects touched) ----------

	// NodesRead counts B+-tree nodes decoded by the traversal.
	NodesRead int64
	// NodesPruned counts subtrees discarded by their MBB: the Lemma 1
	// region test for range queries, the Lemma 3 MIND bound for kNN.
	NodesPruned int64
	// EntriesScanned counts leaf entries examined (their stored cell
	// tested).
	EntriesScanned int64
	// EntriesPruned counts examined entries discarded by the pivot filter
	// without touching the object: the per-entry Lemma 1 region test, the
	// per-entry Lemma 3 MIND bound, or the join's Lemma 5 cell test.
	EntriesPruned int64
	// EntriesSkipped counts merge-list entries the join's Lemma 6 key window
	// excludes before their Lemma 5 cell test. Only a join sets it; a range
	// query counts an entry outside RR as scanned and pruned.
	EntriesSkipped int64
	// HeapPushes counts admissions to the kNN traversal's frontier: node
	// references and buffered inserts (a leaf's entries never enter it; kNN
	// verifies a leaf when it reaches it) — the paper's Table 5
	// memory-pressure signal.
	HeapPushes int64
	// ListEvictions counts merge-list elements retired by Lemma 6 during a
	// similarity join (join only).
	ListEvictions int64

	// --- verification stage (objects fetched from the RAF) --------------

	// Lemma2Included counts answers proved by Lemma 2 without computing
	// their distance (their object is still fetched for the result set).
	Lemma2Included int64
	// Verified counts objects whose exact distance was computed.
	Verified int64
	// Discarded counts verified objects that failed the predicate — the
	// filter's false positives.
	Discarded int64
	// DeltaCandidates counts candidates drawn from the durable write buffer
	// (buffered inserts merged into the search) rather than the base tree.
	// Zero on non-durable trees and when the buffer is empty.
	DeltaCandidates int64
	// TombstonesSkipped counts base candidates discarded at verification
	// because the write buffer shadows their ID (a tombstone or a newer
	// buffered version). Their RAF read already happened — the skipped
	// verification saves the distance computation, not the page access.
	TombstonesSkipped int64
	// Abandoned counts verifications resolved by a threshold-aware kernel
	// (DESIGN.md §10) without completing the exact distance: the evaluation
	// proved d > bound and stopped. Always ≤ Verified, and each abandoned
	// evaluation still counts one Compdists — the cost model charges
	// evaluations, so Compdists does not depend on how many were abandoned.
	// Zero when the metric has no bounded kernel.
	Abandoned int64
	// BatchedCandidates counts the candidates a range or kNN query evaluated
	// in blocks through its prepared kernel (DESIGN.md §13): a pending range
	// block, a kNN leaf or a run of buffered-insert pops, down to a run of
	// one. Every such query verifies its tree candidates
	// this way, so it is ≥ the Verified they account for, and can exceed it
	// for kNN, where an evaluated candidate may still be pruned at commit
	// (counted under EntriesPruned, as an entry-at-a-time scan counts it).
	// Buffered inserts a range query verifies in its delta pass, the join
	// and the graph tier do not count here.
	BatchedCandidates int64
	// GraphHops counts beam-search expansions of a graph-tier query
	// (DESIGN.md §14): nodes whose neighbor list was explored. Zero on every
	// other operation.
	GraphHops int64
	// GraphCandidates counts graph-tier candidates whose distance was
	// evaluated during beam search — the graph-side share of Verified. The
	// remainder of Verified on a graph query is DeltaCandidates (buffered
	// inserts merged brute-force). Zero on every other operation.
	GraphCandidates int64
	// Results is the number of answers returned.
	Results int

	// --- cost totals in the paper's metrics ------------------------------

	// Compdists is the paper's distance-computation count: the |P| pivot
	// mappings of the query object plus one per Verified object. It
	// reconciles exactly with the tree-lifetime counter delta when queries
	// do not run concurrently.
	Compdists int64
	// IndexPA and DataPA are physical page accesses below the buffer
	// caches on the B+-tree and RAF stores; IndexPA+DataPA is the paper's
	// PA.
	IndexPA int64
	DataPA  int64
	// IndexCacheHits/DataCacheHits count reads served above the stores by
	// the buffer caches (invisible to PA, by the paper's definition).
	// Misses equal the physical reads and are not reported separately.
	IndexCacheHits int64
	DataCacheHits  int64

	// --- wall clock -------------------------------------------------------

	// PlanTime covers query preparation: the pivot mapping φ(q) and range-
	// region computation. Populated for Timed queries only; a join carries no
	// stage clocks.
	PlanTime time.Duration
	// VerifyTime covers RAF reads plus distance computations. Timed only.
	VerifyTime time.Duration
	// FilterTime is the remainder of Elapsed: index traversal and pruning.
	// Timed only, and zero for an OpKNNGraph query, whose remainder is the
	// beam search over the graph, not a traversal of the index.
	FilterTime time.Duration
	// Elapsed is the query's total wall time at the level that returned the
	// stats: a tree's own clock, and for a scatter-gather query the forest's
	// or router's clock around the whole gather (every serial round and the
	// wire included). The three stage times above stay per-branch
	// maxima under Merge, possibly of different branches, so on gathered stats
	// they need not sum to it.
	Elapsed time.Duration

	// timed enables the per-stage clocks (Query.Timed); plain queries leave
	// it off so the hot path never calls time.Now per verified object.
	timed bool
}

// PageAccesses returns IndexPA+DataPA, the paper's PA metric.
func (s *QueryStats) PageAccesses() int64 { return s.IndexPA + s.DataPA }

// Merge folds another query's stats into s — the gather-side aggregation of
// a scatter-gather query (forest shards, cluster nodes). Work counters and
// cost totals add, so Compdists/PA reconcile with the total work across all
// branches exactly as on a single tree. The wall clocks do not add: Elapsed,
// PlanTime, VerifyTime and FilterTime each become the maximum over the
// branches — the per-shard maximum, each field on its own — which bounds the
// gather's wall time from below when branches ran side by side and says
// nothing about the total CPU time spent. Plan folds — the shard counts add
// (ShardsPruned too, though every branch reports 0) and Staged is true if
// any branch staged — so a router reports the staging its nodes did; a
// forest's branches are single trees with a zero Plan, and it sets its own.
// Elapsed is provisional: the gather side overwrites it with its own clock
// around the gather. Merge only reads exported fields, so it works
// identically on stats decoded from a wire payload (gob drops the unexported
// timing flag, which only gates clock collection, not reporting).
func (s *QueryStats) Merge(o QueryStats) {
	if s.Op == "" {
		s.Op = o.Op
	}
	s.Plan.ShardsTotal += o.Plan.ShardsTotal
	s.Plan.ShardsPruned += o.Plan.ShardsPruned
	s.Plan.Staged = s.Plan.Staged || o.Plan.Staged
	s.NodesRead += o.NodesRead
	s.NodesPruned += o.NodesPruned
	s.EntriesScanned += o.EntriesScanned
	s.EntriesPruned += o.EntriesPruned
	s.EntriesSkipped += o.EntriesSkipped
	s.HeapPushes += o.HeapPushes
	s.ListEvictions += o.ListEvictions
	s.Lemma2Included += o.Lemma2Included
	s.Verified += o.Verified
	s.Discarded += o.Discarded
	s.DeltaCandidates += o.DeltaCandidates
	s.TombstonesSkipped += o.TombstonesSkipped
	s.Abandoned += o.Abandoned
	s.BatchedCandidates += o.BatchedCandidates
	s.GraphHops += o.GraphHops
	s.GraphCandidates += o.GraphCandidates
	s.Results += o.Results
	s.Compdists += o.Compdists
	s.IndexPA += o.IndexPA
	s.DataPA += o.DataPA
	s.IndexCacheHits += o.IndexCacheHits
	s.DataCacheHits += o.DataCacheHits
	if o.PlanTime > s.PlanTime {
		s.PlanTime = o.PlanTime
	}
	if o.VerifyTime > s.VerifyTime {
		s.VerifyTime = o.VerifyTime
	}
	if o.FilterTime > s.FilterTime {
		s.FilterTime = o.FilterTime
	}
	if o.Elapsed > s.Elapsed {
		s.Elapsed = o.Elapsed
	}
}

// stageStart returns a stage start time, or the zero time when per-stage
// timing is off.
func (s *QueryStats) stageStart() time.Time {
	if !s.timed {
		return time.Time{}
	}
	return time.Now()
}

// stageAdd accumulates a stage duration started at st (no-op when timing is
// off).
func (s *QueryStats) stageAdd(d *time.Duration, st time.Time) {
	if s.timed {
		*d += time.Since(st)
	}
}

// ioSnapshot is a point-in-time copy of the shared I/O counters used for
// per-query deltas.
type ioSnapshot struct {
	idxAcc, dataAcc   int64
	idxHits, dataHits int64
	dist              int64
}

// takeIOSnapshot reads the tree's physical-access, cache-hit and distance
// counters (a handful of atomic loads).
func (t *Tree) takeIOSnapshot() ioSnapshot {
	var s ioSnapshot
	s.idxAcc = t.idxCache.Stats().Accesses()
	s.dataAcc = t.dataCache.Stats().Accesses()
	s.idxHits, _ = t.idxCache.Counts()
	s.dataHits, _ = t.dataCache.Counts()
	s.dist = t.dist.Count()
	return s
}

// addIO adds the page accesses and cache hits between two snapshots of one
// tree's counters.
func (s *QueryStats) addIO(before, after ioSnapshot) {
	s.IndexPA += after.idxAcc - before.idxAcc
	s.DataPA += after.dataAcc - before.dataAcc
	s.IndexCacheHits += after.idxHits - before.idxHits
	s.DataCacheHits += after.dataHits - before.dataHits
}

// queryTimer carries one query's begin-state; finish turns it into deltas
// and folds the query into the tree's aggregate metrics. It lives on the
// caller's stack — no allocation on the query path.
type queryTimer struct {
	t      *Tree
	qs     *QueryStats
	before ioSnapshot
	start  time.Time
	// to and toBefore are a two-tree join's second tree and its begin-state,
	// set by Join; to is nil for every other query, a self-join included.
	to       *Tree
	toBefore ioSnapshot
}

// beginQuery snapshots the shared counters and starts the wall clock.
func (t *Tree) beginQuery(qs *QueryStats) queryTimer {
	return queryTimer{t: t, qs: qs, before: t.takeIOSnapshot(), start: time.Now()}
}

// finish computes the I/O deltas (a two-tree join's second store
// included), closes the clocks and records the query in the aggregate
// registry.
func (qt *queryTimer) finish(results int, err error) {
	qs := qt.qs
	qs.Elapsed = time.Since(qt.start)
	qs.Results = results
	qs.addIO(qt.before, qt.t.takeIOSnapshot())
	if qt.to != nil {
		qs.addIO(qt.toBefore, qt.to.takeIOSnapshot())
	}
	if qs.timed && qs.Op != OpKNNGraph {
		if ft := qs.Elapsed - qs.PlanTime - qs.VerifyTime; ft > 0 {
			qs.FilterTime = ft
		}
	}
	qt.t.metrics.Op(qs.Op).Observe(qs.Compdists, qs.IndexPA, qs.DataPA, int64(results), qs.Elapsed, err != nil)
}

// Metrics returns the tree's aggregate observability registry: per-operation
// query counts, compdists/PA totals and latency histograms, accumulated over
// the tree's lifetime by Query and Join (a join is recorded on its Q tree).
func (t *Tree) Metrics() *obs.Registry { return &t.metrics }

// PublishExpvar exports the tree's aggregate metrics snapshot under name in
// the process-wide expvar registry (served at /debug/vars by the -debugaddr
// listener of spbtool and spbbench). It reports whether the name was newly
// published; publishing an already-used name is a no-op.
func (t *Tree) PublishExpvar(name string) bool { return t.metrics.Publish(name) }

// SetTracer installs tr on every storage layer of the tree: the B+-tree
// (EvNodeRead), both buffer caches (EvCacheHit/EvCacheMiss/EvPageRead/
// EvPageWrite, labeled index vs data) and the RAF (EvRecordRead). A nil tr
// removes tracing; the default is no tracer, whose entire cost is one nil
// check per site. It takes the write lock, so it waits for in-flight
// operations.
func (t *Tree) SetTracer(tr obs.Tracer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tracer = tr
	t.wireTracer()
}

// wireTracer pushes t.tracer down to the current storage substrates; Rebuild
// re-invokes it after swapping them.
func (t *Tree) wireTracer() {
	t.bpt.SetTracer(t.tracer)
	t.idxCache.SetTracer(t.tracer, obs.SrcIndex)
	t.dataCache.SetTracer(t.tracer, obs.SrcData)
	t.raf.SetTracer(t.tracer)
}
