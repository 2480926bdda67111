// Parallel query execution engine (DESIGN.md §9).
//
// Traversal stays serial — pruning is cheap, order-sensitive, and drives the
// counters the paper's cost models calibrate against — while the expensive
// verification stage (RAF page reads plus metric distance computations) fans
// out to a pool of verifier goroutines. Three designs keep parallel
// executions byte-identical to serial ones in results and in the
// Verified/Compdists counters:
//
//   - Range queries and joins have bound-independent candidate sets, so their
//     verifiers are embarrassingly parallel; per-worker counter shards merge
//     at the end, and results are re-ordered deterministically (by object ID
//     for ranges, by dispatch sequence for joins).
//
//   - kNN verifications feed back into the pruning bound curND_k, so the
//     engine replays them in dispatch order: workers compute speculative
//     distances out of order, and a sequenced commit step applies each
//     verdict exactly as the serial algorithm would have — tightening the
//     bound, terminating, or discarding stale-admitted extras. The traversal
//     prunes against the committed bound, which is always ≥ the serial bound
//     at the equivalent point, so staleness only admits extra candidates
//     (which provably self-discard at commit), never drops answers.
//
//   - Speculative work stays invisible: workers read records quietly (tracer
//     events fire at commit) and compute distances on the unwrapped metric
//     (the lifetime compdists counter advances at commit), so observability
//     sees exactly the serial execution.
//
// Threshold-aware kernels (DESIGN.md §10) compose with all three: workers
// probe with metric.DistanceAtMost against the bound they can see (the fixed
// r/ε, or the committed curND_k, which is only ever looser than the bound at
// the verdict's commit slot), and kNN commits replay the bounded decision at
// the commit-time bound — so results, Verified, Compdists and the new
// Abandoned counter all remain byte-identical to serial execution.
package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spbtree/internal/metric"
	"spbtree/internal/page"
	"spbtree/internal/sfc"
)

// maxWorkers caps Options.Workers.
const maxWorkers = 64

// defaultWorkers is the Workers default: one verifier, i.e. serial execution.
// On the end-to-end benchmark (bench/README.md, two cores) a per-query
// verifier pool is three to four times slower than the serial path, so the
// pool is opt-in through Options.Workers / SetWorkers.
const defaultWorkers = 1

// resolveWorkers normalizes an Options.Workers value to [1, maxWorkers].
func resolveWorkers(w int) int {
	switch {
	case w == 0:
		return defaultWorkers
	case w < 1:
		return 1
	case w > maxWorkers:
		return maxWorkers
	}
	return w
}

// execSlots is the process-wide pool of verifier goroutines. Every query —
// across trees, forest shards and server workers — draws its verifiers from
// here non-blockingly, so shard-level and intra-query parallelism compose
// without goroutine explosion: under saturation queries degrade gracefully
// to serial execution instead of queueing or multiplying threads.
var execSlots = make(chan struct{}, execSlotCap())

func execSlotCap() int {
	n := 2 * runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	return n
}

// acquireSlots takes up to n slots without blocking, returning how many it
// got.
func acquireSlots(n int) int {
	got := 0
	for got < n {
		select {
		case execSlots <- struct{}{}:
			got++
		default:
			return got
		}
	}
	return got
}

func releaseSlots(n int) {
	for i := 0; i < n; i++ {
		<-execSlots
	}
}

// workersFor reserves verifier goroutines for one query: up to the tree's
// configured worker count, fewer under load, zero when the pool is exhausted
// (the query then runs serially). The caller must hand the count to an
// engine (which releases on finish) or call releaseSlots itself.
func (t *Tree) workersFor() int {
	k := t.workers
	if k <= 1 {
		return 0
	}
	return acquireSlots(k)
}

// errStopTraversal aborts a traversal after a verifier worker recorded an
// error; the engine's finish reports the worker's error in its place.
var errStopTraversal = errors.New("core: stop traversal")

// rangeBatchSize is how many surviving candidates a range traversal batches
// per verifier job — large enough for ReadBatch to coalesce a leaf's
// page-sharing records, small enough to keep the pipeline busy.
const rangeBatchSize = 16

// ---------------------------------------------------------------------------
// Range queries
// ---------------------------------------------------------------------------

// rangeSink consumes leaf entries that survived the traversal-side pruning
// of Algorithm 1. add's cell argument holds the entry's decoded SFC cell and
// is scratch owned by the caller, valid only during the call; finish returns
// the verified answers (unsorted) and the first verification error.
type rangeSink interface {
	add(key, val uint64, cell sfc.Point) error
	finish() ([]Result, error)
}

// rangeSerial verifies candidates inline — the exact serial tail of the
// paper's VerifyRQ: Lemma 2 inclusion, then fetch + distance. With batch
// kernels (DESIGN.md §13) it instead buffers candidates into leaf-sized
// blocks, coalesces their RAF reads and evaluates the survivors of the
// tombstone/Lemma 2 pre-filter through one verifyBatch call; the radius is a
// fixed bound, so block evaluation returns exactly the per-candidate
// decisions of the inline path, and every counter except BatchedCandidates
// is unchanged.
type rangeSerial struct {
	t       *Tree
	q       metric.Object
	qvec    []float64
	r       float64
	qs      *QueryStats
	results []Result
	sc      *queryScratch // pending block, block slices, prepared kernel
}

// rangeBatchScratch holds one block's reusable verification slices.
type rangeBatchScratch struct {
	offsets  []uint64
	objs     []metric.Object
	plens    []int
	liveIdx  []int
	liveObjs []metric.Object
	d        []float64
	within   []bool
}

// grow sizes every slice for a block of n candidates.
func (b *rangeBatchScratch) grow(n int) {
	if cap(b.offsets) < n {
		b.offsets = make([]uint64, n)
		b.objs = make([]metric.Object, n)
		b.plens = make([]int, n)
		b.liveIdx = make([]int, n)
		b.liveObjs = make([]metric.Object, n)
		b.d = make([]float64, n)
		b.within = make([]bool, n)
	}
}

func (s *rangeSerial) add(key, val uint64, cell sfc.Point) error {
	if s.t.batch {
		s.sc.rbuf = append(s.sc.rbuf, rangeCand{key: key, val: val})
		if len(s.sc.rbuf) >= rangeBatchSize {
			return s.flush()
		}
		return nil
	}
	return s.addScalar(key, val, cell)
}

// flush verifies the buffered block. A failed coalesced read falls back to
// the inline scalar path (counted reads), so the error surfaces at the same
// scan position with the same counters as unbatched execution.
func (s *rangeSerial) flush() error {
	if len(s.sc.rbuf) == 0 {
		return nil
	}
	t, qs, bs, cell := s.t, s.qs, &s.sc.bs, s.sc.vcell
	cands := s.sc.rbuf
	s.sc.rbuf = cands[:0]
	n := len(cands)
	bs.grow(n)
	offsets, objs, plens := bs.offsets[:n], bs.objs[:n], bs.plens[:n]
	for i, c := range cands {
		offsets[i] = c.val
	}
	st := qs.stageStart()
	if idx, err := t.raf.ReadBatch(offsets, objs, plens); idx >= 0 || err != nil {
		qs.stageAdd(&qs.VerifyTime, st)
		for _, c := range cands {
			t.curve.Decode(c.key, cell)
			if err := s.addScalar(c.key, c.val, cell); err != nil {
				return err
			}
		}
		return nil
	}
	// Pre-filter: tombstone skips and Lemma 2 inclusions peel off exactly as
	// inline; the remainder is one batch distance evaluation.
	liveIdx, liveObjs := bs.liveIdx[:0], bs.liveObjs[:0]
	for i, c := range cands {
		obj := objs[i]
		if t.deltaShadowed(obj.ID()) {
			t.raf.EmitRecordRead(c.val, plens[i])
			qs.TombstonesSkipped++
			continue
		}
		t.curve.Decode(c.key, cell)
		if !t.noLemma2 {
			if ub, ok := t.lemma2Bound(s.qvec, cell, s.r); ok {
				qs.Lemma2Included++
				t.raf.EmitRecordRead(c.val, plens[i])
				s.results = append(s.results, Result{Object: obj, Dist: ub, Exact: false})
				continue
			}
		}
		liveIdx = append(liveIdx, i)
		liveObjs = append(liveObjs, obj)
	}
	if len(liveObjs) > 0 {
		m := len(liveObjs)
		d, within := bs.d[:m], bs.within[:m]
		t.verifyBatch(s.sc.kernel(t, s.q), liveObjs, s.r, d, within)
		qs.BatchedCandidates += int64(m)
		for j, i := range liveIdx {
			qs.Verified++
			qs.Compdists++
			t.raf.EmitRecordRead(cands[i].val, plens[i])
			if within[j] {
				s.results = append(s.results, Result{Object: liveObjs[j], Dist: d[j], Exact: true})
			} else {
				qs.Discarded++
				if t.bounded {
					qs.Abandoned++
				}
			}
		}
	}
	qs.stageAdd(&qs.VerifyTime, st)
	return nil
}

// addScalar is the inline verification tail (the only path when batch
// kernels are off).
func (s *rangeSerial) addScalar(key, val uint64, cell sfc.Point) error {
	t, qs := s.t, s.qs
	st := qs.stageStart()
	obj, err := t.raf.Read(val)
	if err != nil {
		qs.stageAdd(&qs.VerifyTime, st)
		return err
	}
	if t.deltaShadowed(obj.ID()) {
		// The write buffer supersedes this base record (tombstone or newer
		// version); the delta pass reports the live one, if any. The page
		// read already happened — what the skip saves is the distance work.
		qs.stageAdd(&qs.VerifyTime, st)
		qs.TombstonesSkipped++
		return nil
	}
	if !t.noLemma2 {
		if ub, ok := t.lemma2Bound(s.qvec, cell, s.r); ok {
			qs.stageAdd(&qs.VerifyTime, st)
			qs.Lemma2Included++
			s.results = append(s.results, Result{Object: obj, Dist: ub, Exact: false})
			return nil
		}
	}
	d, within := t.verifyDist(s.q, obj, s.r)
	qs.stageAdd(&qs.VerifyTime, st)
	qs.Verified++
	qs.Compdists++
	if within {
		s.results = append(s.results, Result{Object: obj, Dist: d, Exact: true})
	} else {
		qs.Discarded++
		if t.bounded {
			qs.Abandoned++
		}
	}
	return nil
}

func (s *rangeSerial) finish() ([]Result, error) {
	if err := s.flush(); err != nil {
		return s.results, err
	}
	return s.results, nil
}

// rangeCand is one dispatched candidate; seq is its position in scan order,
// used to report the scan-earliest error when several workers fail.
type rangeCand struct {
	key, val uint64
	seq      int64
}

// rangeExec fans range verification out to a worker pool. The candidate set
// is independent of the results (no feedback bound), so workers verify
// batches concurrently with per-worker counter shards; finish merges shards
// and picks the scan-earliest error. Results are sorted by ID afterwards, so
// the answer set and every verification counter are identical to serial
// execution.
type rangeExec struct {
	t     *Tree
	ctx   context.Context
	q     metric.Object
	prep  metric.PreparedQuery // the query's batch kernel, shared by the workers
	qvec  []float64
	r     float64
	qs    *QueryStats
	timed bool

	jobs    chan []rangeCand
	batch   []rangeCand
	seq     int64
	failed  atomic.Bool
	wg      sync.WaitGroup
	workers []rangeWorker
}

// rangeWorker is one verifier's counter shard and result slice.
type rangeWorker struct {
	results     []Result
	lemma2      int64
	verified    int64
	discarded   int64
	abandoned   int64
	batched     int64
	compdists   int64
	tombSkipped int64
	verifyTime  time.Duration
	errSeq      int64
	err         error
	bs          rangeBatchScratch
}

func (t *Tree) newRangeExec(ctx context.Context, q metric.Object, prep metric.PreparedQuery, qvec []float64, r float64, qs *QueryStats, slots int) *rangeExec {
	e := &rangeExec{
		t: t, ctx: ctx, q: q, prep: prep, qvec: qvec, r: r, qs: qs, timed: qs.timed,
		jobs:    make(chan []rangeCand, 2*slots),
		batch:   make([]rangeCand, 0, rangeBatchSize),
		workers: make([]rangeWorker, slots),
	}
	e.wg.Add(slots)
	for i := range e.workers {
		go e.run(&e.workers[i])
	}
	return e
}

func (e *rangeExec) add(key, val uint64, _ sfc.Point) error {
	if e.failed.Load() {
		return errStopTraversal
	}
	e.batch = append(e.batch, rangeCand{key: key, val: val, seq: e.seq})
	e.seq++
	if len(e.batch) >= rangeBatchSize {
		e.flushBatch()
	}
	return nil
}

func (e *rangeExec) flushBatch() {
	if len(e.batch) == 0 {
		return
	}
	b := e.batch
	e.batch = make([]rangeCand, 0, rangeBatchSize)
	e.jobs <- b
}

func (e *rangeExec) finish() ([]Result, error) {
	e.flushBatch()
	close(e.jobs)
	e.wg.Wait()
	releaseSlots(len(e.workers))
	qs := e.qs
	var results []Result
	var firstErr error
	errSeq := int64(math.MaxInt64)
	for i := range e.workers {
		w := &e.workers[i]
		results = append(results, w.results...)
		qs.Lemma2Included += w.lemma2
		qs.Verified += w.verified
		qs.Discarded += w.discarded
		qs.Abandoned += w.abandoned
		qs.BatchedCandidates += w.batched
		qs.Compdists += w.compdists
		qs.TombstonesSkipped += w.tombSkipped
		qs.VerifyTime += w.verifyTime
		if w.err != nil && w.errSeq < errSeq {
			firstErr, errSeq = w.err, w.errSeq
		}
	}
	return results, firstErr
}

// run is a verifier goroutine: drain jobs, verify each batch.
func (e *rangeExec) run(w *rangeWorker) {
	defer e.wg.Done()
	cell := make(sfc.Point, len(e.t.pivots))
	offsets := make([]uint64, 0, rangeBatchSize)
	objs := make([]metric.Object, rangeBatchSize)
	plens := make([]int, rangeBatchSize)
	for cands := range e.jobs {
		if w.err != nil || e.failed.Load() {
			continue // wind down: drain without working
		}
		e.runBatch(w, cands, cell, offsets, objs, plens)
	}
}

// runBatch coalesces the batch's RAF reads and verifies each candidate. On a
// batch read failure it falls back to per-candidate reads (the pages are
// warm) so the error surfaces at the exact scan position the serial
// execution would have reported.
func (e *rangeExec) runBatch(w *rangeWorker, cands []rangeCand, cell sfc.Point, offsets []uint64, objs []metric.Object, plens []int) {
	if err := ctxDone(e.ctx); err != nil {
		e.fail(w, cands[0].seq, err)
		return
	}
	var st time.Time
	if e.timed {
		st = time.Now()
	}
	offsets = offsets[:0]
	for _, c := range cands {
		offsets = append(offsets, c.val)
	}
	objs, plens = objs[:len(cands)], plens[:len(cands)]
	if idx, err := e.t.raf.ReadBatch(offsets, objs, plens); idx >= 0 || err != nil {
		for _, c := range cands {
			if err := ctxDone(e.ctx); err != nil {
				e.fail(w, c.seq, err)
				break
			}
			obj, plen, err := e.t.raf.ReadQuiet(c.val)
			if err != nil {
				e.fail(w, c.seq, err)
				break
			}
			e.verifyOne(w, c, obj, plen, cell)
		}
	} else if e.t.batch {
		e.verifyBlock(w, cands, objs, plens, cell)
	} else {
		for i, c := range cands {
			e.verifyOne(w, c, objs[i], plens[i], cell)
		}
	}
	if e.timed {
		w.verifyTime += time.Since(st)
	}
}

// verifyBlock is verifyOne over a coalesced block: the tombstone and Lemma 2
// pre-filters peel candidates off per candidate exactly as verifyOne, and the
// survivors run one verifyBatch call (DESIGN.md §13). The radius is a fixed
// bound, so each batched (d, within) pair is bit-identical to the scalar
// decision and every shard counter except batched is unchanged.
func (e *rangeExec) verifyBlock(w *rangeWorker, cands []rangeCand, objs []metric.Object, plens []int, cell sfc.Point) {
	t := e.t
	n := len(cands)
	w.bs.grow(n)
	liveIdx, liveObjs := w.bs.liveIdx[:0], w.bs.liveObjs[:0]
	for i, c := range cands {
		obj := objs[i]
		if t.deltaShadowed(obj.ID()) {
			t.raf.EmitRecordRead(c.val, plens[i])
			w.tombSkipped++
			continue
		}
		t.curve.Decode(c.key, cell)
		if !t.noLemma2 {
			if ub, ok := t.lemma2Bound(e.qvec, cell, e.r); ok {
				w.lemma2++
				t.raf.EmitRecordRead(c.val, plens[i])
				w.results = append(w.results, Result{Object: obj, Dist: ub, Exact: false})
				continue
			}
		}
		liveIdx = append(liveIdx, i)
		liveObjs = append(liveObjs, obj)
	}
	if len(liveObjs) == 0 {
		return
	}
	m := len(liveObjs)
	d, within := w.bs.d[:m], w.bs.within[:m]
	t.verifyBatch(e.prep, liveObjs, e.r, d, within)
	w.batched += int64(m)
	for j, i := range liveIdx {
		w.verified++
		w.compdists++
		t.raf.EmitRecordRead(cands[i].val, plens[i])
		if within[j] {
			w.results = append(w.results, Result{Object: liveObjs[j], Dist: d[j], Exact: true})
		} else {
			w.discarded++
			if t.bounded {
				w.abandoned++
			}
		}
	}
}

// verifyOne applies the serial VerifyRQ tail to one fetched candidate:
// Lemma 2 inclusion or a distance computation, into the worker's shard.
func (e *rangeExec) verifyOne(w *rangeWorker, c rangeCand, obj metric.Object, plen int, cell sfc.Point) {
	t := e.t
	if t.deltaShadowed(obj.ID()) {
		// Superseded by the write buffer; the serial sink skips it after the
		// same read. Safe off the query goroutine: the buffer only mutates
		// under the write lock, excluded for the query's whole lifetime.
		t.raf.EmitRecordRead(c.val, plen)
		w.tombSkipped++
		return
	}
	t.curve.Decode(c.key, cell)
	if !t.noLemma2 {
		if ub, ok := t.lemma2Bound(e.qvec, cell, e.r); ok {
			w.lemma2++
			t.raf.EmitRecordRead(c.val, plen)
			w.results = append(w.results, Result{Object: obj, Dist: ub, Exact: false})
			return
		}
	}
	// The radius is a fixed bound (no feedback), so every verification here
	// commits: the counted metric is used directly, and the bounded kernel
	// can abandon against r with no replay subtleties.
	d, within := t.verifyDist(e.q, obj, e.r)
	w.verified++
	w.compdists++
	t.raf.EmitRecordRead(c.val, plen)
	if within {
		w.results = append(w.results, Result{Object: obj, Dist: d, Exact: true})
	} else {
		w.discarded++
		if t.bounded {
			w.abandoned++
		}
	}
}

func (e *rangeExec) fail(w *rangeWorker, seq int64, err error) {
	if w.err == nil {
		w.err, w.errSeq = err, seq
	}
	e.failed.Store(true)
}

// ---------------------------------------------------------------------------
// kNN queries (ordered-commit replay)
// ---------------------------------------------------------------------------

// knnCand is one admitted candidate: its MIND lower bound and RAF offset. A
// non-nil obj marks a buffered-insert candidate from the write buffer — the
// object is already in memory, so verification skips the RAF read.
type knnCand struct {
	mind float64
	val  uint64
	obj  metric.Object
}

// knnJob carries consecutively sequenced candidates (a greedy leaf batch, or
// a single incremental entry) to a verifier.
type knnJob struct {
	seq   int64
	items []knnCand
}

// knnVerdict is a worker's speculative result for one candidate, awaiting
// its commit slot. Under bounded kernels, within reports whether the probe
// completed (d is then the exact distance); a false within means the worker
// proved d > its probe bound — and since the bound only tightens between
// probe and commit, the commit-time evaluation would abandon too.
type knnVerdict struct {
	mind   float64
	val    uint64
	obj    metric.Object
	d      float64
	within bool
	tomb   bool // base record superseded by the write buffer: skip, no verify
	plen   int  // -1 marks a write-buffer candidate (no RAF read happened)
	dur    time.Duration
	err    error
}

// knnExec runs Algorithm 2's verification stage as an ordered-commit
// pipeline. The traversal dispatches admitted entries with increasing
// sequence numbers and prunes against the committed bound; workers read and
// compute speculatively; commits replay strictly in sequence, so each slot
// decides exactly what the serial algorithm would have: terminate (budget or
// bound), discard a stale-admitted extra, surface an error, or tighten
// curND_k. The committed verification set — and therefore Verified,
// Compdists, the emitted tracer events and the lifetime distance counter —
// matches serial execution exactly.
type knnExec struct {
	t       *Tree
	ctx     context.Context
	q       metric.Object
	raw     metric.DistanceFunc
	prep    metric.PreparedQuery // the query's batch kernel, shared by the workers
	bounded bool                 // probe with the bounded kernel against the committed bound
	batch   bool                 // probe greedy leaf blocks through the batch kernel
	greedy  bool
	budget  int64 // max committed verifications; -1 = unlimited
	qs      *QueryStats
	timed   bool

	jobs  chan knnJob
	wg    sync.WaitGroup
	slots int

	// boundBits is the committed curND_k as float bits, read lock-free by
	// the traversal; done flags termination or failure so the traversal and
	// workers stop early.
	boundBits atomic.Uint64
	done      atomic.Bool

	// batched counts candidates probed through the batch kernel, across all
	// workers (atomic: probes race).
	batched atomic.Int64

	dispatched int64 // traversal-side sequence counter

	mu             sync.Mutex
	res            *knnResults
	next           int64 // next sequence to commit
	pending        map[int64]knnVerdict
	committed      int64
	terminated     bool
	err            error
	verified       int64
	compdists      int64
	abandoned      int64
	prunedAtCommit int64
	tombSkipped    int64
	deltaCands     int64
	verifyTime     time.Duration
}

func (t *Tree) newKNNExec(ctx context.Context, q metric.Object, prep metric.PreparedQuery, k int, bound0 float64, qs *QueryStats, slots int, budget int64, greedy bool) *knnExec {
	res := newKNNResults(k, bound0)
	ex := &knnExec{
		t: t, ctx: ctx, q: q, raw: t.dist.Unwrap(), prep: prep, bounded: t.bounded, batch: t.batch, greedy: greedy,
		budget: budget, qs: qs, timed: qs.timed,
		jobs:    make(chan knnJob, 2*slots),
		slots:   slots,
		res:     res,
		pending: make(map[int64]knnVerdict),
	}
	ex.boundBits.Store(math.Float64bits(res.bound()))
	ex.wg.Add(slots)
	for i := 0; i < slots; i++ {
		go ex.worker()
	}
	return ex
}

// bound returns the committed curND_k. It is never tighter than the serial
// bound at the equivalent replay point, so pruning on it is always safe.
func (ex *knnExec) bound() float64 { return math.Float64frombits(ex.boundBits.Load()) }

// probe computes a worker's speculative distance for obj. With bounded
// kernels it evaluates against the committed bound, which can only be looser
// than the bound at this verdict's commit slot — so an abandoned probe
// (within = false) implies the commit-time evaluation would abandon too, and
// a completed probe carries the exact distance for the commit to re-check.
func (ex *knnExec) probe(obj metric.Object) (float64, bool) {
	if ex.bounded {
		return metric.DistanceAtMost(ex.raw, ex.q, obj, ex.bound())
	}
	return ex.raw.Distance(ex.q, obj), true
}

// dispatch hands admitted entries (in traversal order) to the workers.
func (ex *knnExec) dispatch(items ...knnCand) {
	seq := ex.dispatched
	ex.dispatched += int64(len(items))
	cp := make([]knnCand, len(items))
	copy(cp, items)
	ex.jobs <- knnJob{seq: seq, items: cp}
}

func (ex *knnExec) worker() {
	defer ex.wg.Done()
	t := ex.t
	var offsets []uint64
	var objs []metric.Object
	var plens []int
	var live []int
	var probeIdx []int
	var probeObjs []metric.Object
	var pd []float64
	var pw []bool
	for job := range ex.jobs {
		if ex.done.Load() {
			// Terminated: nothing can commit, but the replay sequence must
			// stay dense so earlier pending verdicts drain.
			for i, it := range job.items {
				ex.submit(job.seq+int64(i), knnVerdict{mind: it.mind, val: it.val})
			}
			continue
		}
		if err := ctxDone(ex.ctx); err != nil {
			for i, it := range job.items {
				ex.submit(job.seq+int64(i), knnVerdict{mind: it.mind, val: it.val, err: err})
			}
			continue
		}
		// Re-check every candidate against the committed bound before
		// touching it. The bound only tightens, so mind > bound now implies
		// mind > bound at this slot's commit, where it is discarded (greedy)
		// or terminates the query (incremental) without using the verdict
		// value — reading and verifying it would be pure waste. This is what
		// keeps speculative work bounded when the traversal runs far ahead of
		// the commits; the empty verdicts keep the replay sequence dense.
		live = live[:0]
		bound := ex.bound()
		for i, it := range job.items {
			switch {
			case it.mind > bound:
				ex.submit(job.seq+int64(i), knnVerdict{mind: it.mind, val: it.val})
			case it.obj != nil:
				// Write-buffer candidate: the object is in memory, so the
				// verdict is just the speculative distance.
				v := knnVerdict{mind: it.mind, val: it.val, obj: it.obj, plen: -1}
				var st time.Time
				if ex.timed {
					st = time.Now()
				}
				v.d, v.within = ex.probe(it.obj)
				if ex.timed {
					v.dur = time.Since(st)
				}
				ex.submit(job.seq+int64(i), v)
			default:
				live = append(live, i)
			}
		}
		if len(live) == 0 {
			continue
		}
		var st time.Time
		if ex.timed {
			st = time.Now()
		}
		if len(live) == 1 {
			it := job.items[live[0]]
			v := knnVerdict{mind: it.mind, val: it.val}
			if obj, plen, err := t.raf.ReadQuiet(it.val); err != nil {
				v.err = err
			} else if t.deltaShadowed(obj.ID()) {
				v.obj, v.plen, v.tomb = obj, plen, true
			} else {
				v.obj, v.plen = obj, plen
				v.d, v.within = ex.probe(obj)
			}
			if ex.timed {
				v.dur = time.Since(st)
			}
			ex.submit(job.seq+int64(live[0]), v)
			continue
		}
		// A greedy leaf batch: coalesce the reads.
		offsets = offsets[:0]
		for _, i := range live {
			offsets = append(offsets, job.items[i].val)
		}
		if cap(objs) < len(offsets) {
			objs = make([]metric.Object, len(offsets))
			plens = make([]int, len(offsets))
		}
		objs, plens = objs[:len(offsets)], plens[:len(offsets)]
		if idx, err := t.raf.ReadBatch(offsets, objs, plens); idx >= 0 || err != nil {
			// Per-record fallback so each verdict carries its own error.
			for bi, i := range live {
				it := job.items[i]
				v := knnVerdict{mind: it.mind, val: it.val}
				if obj, plen, rerr := t.raf.ReadQuiet(it.val); rerr != nil {
					v.err = rerr
				} else if t.deltaShadowed(obj.ID()) {
					v.obj, v.plen, v.tomb = obj, plen, true
				} else {
					v.obj, v.plen = obj, plen
					v.d, v.within = ex.probe(obj)
				}
				if ex.timed && bi == 0 {
					v.dur = time.Since(st)
				}
				ex.submit(job.seq+int64(i), v)
			}
			continue
		}
		if ex.batch {
			// Batch probe (DESIGN.md §13): one committed-bound snapshot for
			// the whole block. The snapshot can only be looser than the bound
			// at each verdict's commit slot, so — exactly as for a scalar
			// probe — an abandoned batch entry would abandon at commit too,
			// and a completed one carries the exact distance for the commit to
			// re-check. Results and every commit-side counter are identical to
			// scalar probing.
			probeIdx, probeObjs = probeIdx[:0], probeObjs[:0]
			for bi := range live {
				if !t.deltaShadowed(objs[bi].ID()) {
					probeIdx = append(probeIdx, bi)
					probeObjs = append(probeObjs, objs[bi])
				}
			}
			if cap(pd) < len(live) {
				pd = make([]float64, len(live))
				pw = make([]bool, len(live))
			}
			if len(probeObjs) > 0 {
				eff := math.Inf(1)
				if ex.bounded {
					eff = ex.bound()
				}
				ex.prep.BatchAtMost(probeObjs, eff, pd[:len(probeObjs)], pw[:len(probeObjs)])
				ex.batched.Add(int64(len(probeObjs)))
			}
			j := 0
			for bi, i := range live {
				it := job.items[i]
				v := knnVerdict{mind: it.mind, val: it.val, obj: objs[bi], plen: plens[bi]}
				if j < len(probeIdx) && probeIdx[j] == bi {
					v.d, v.within = pd[j], pw[j]
					j++
				} else {
					v.tomb = true
				}
				if ex.timed && bi == len(live)-1 {
					v.dur = time.Since(st)
				}
				ex.submit(job.seq+int64(i), v)
			}
			continue
		}
		for bi, i := range live {
			it := job.items[i]
			v := knnVerdict{mind: it.mind, val: it.val, obj: objs[bi], plen: plens[bi]}
			if t.deltaShadowed(objs[bi].ID()) {
				v.tomb = true
			} else {
				v.d, v.within = ex.probe(objs[bi])
			}
			if ex.timed && bi == len(live)-1 {
				v.dur = time.Since(st)
			}
			ex.submit(job.seq+int64(i), v)
		}
	}
}

// submit files a verdict and drains every consecutively ready commit slot.
// Verdicts arriving exactly in sequence (the common case once the pipeline is
// warm) commit directly, skipping the pending map.
func (ex *knnExec) submit(seq int64, v knnVerdict) {
	ex.mu.Lock()
	if seq == ex.next {
		ex.next++
		ex.commitLocked(v)
	} else {
		ex.pending[seq] = v
	}
	for len(ex.pending) > 0 {
		nv, ok := ex.pending[ex.next]
		if !ok {
			break
		}
		delete(ex.pending, ex.next)
		ex.next++
		ex.commitLocked(nv)
	}
	ex.mu.Unlock()
}

// commitLocked replays one verdict exactly as serial execution would have,
// in serial order: the approximate-search budget first (checked at the loop
// top there), then the Lemma 3 bound (checked at pop/scan), then the
// verification itself — so a read error on an entry the serial run would
// never have verified stays invisible, like the read itself.
func (ex *knnExec) commitLocked(v knnVerdict) {
	if ex.terminated {
		return
	}
	if ex.budget >= 0 && ex.committed >= ex.budget {
		ex.terminate()
		return
	}
	if v.mind > ex.res.bound() {
		if ex.greedy {
			// Serial greedy would have pruned this entry at the leaf scan
			// and moved on.
			ex.prunedAtCommit++
			return
		}
		// Incremental pops in nondecreasing MIND order, so the first
		// bound-crossing entry ends the query (Lemma 3).
		ex.terminate()
		return
	}
	if v.err != nil {
		ex.err = v.err
		ex.terminate()
		return
	}
	if v.tomb {
		// Superseded base record: serial execution skips it right after the
		// read, before any distance work — it consumes no verification (and
		// no approximate-search budget), only the page read it already cost.
		ex.t.raf.EmitRecordRead(v.val, v.plen)
		ex.tombSkipped++
		return
	}
	ex.verified++
	ex.compdists++
	ex.t.dist.Add(1)
	ex.verifyTime += v.dur
	if v.plen >= 0 {
		ex.t.raf.EmitRecordRead(v.val, v.plen)
	} else {
		ex.deltaCands++
	}
	ex.committed++
	// Replay the serial bounded decision at this slot's bound. A probe that
	// completed but whose distance now exceeds the (possibly tighter) commit
	// bound counts as abandoned, exactly as the serial evaluation at this
	// point would have; a probe the worker abandoned is a fortiori beyond the
	// commit bound. Without bounded kernels every verdict completed and is
	// offered, as before.
	if v.within && (!ex.bounded || v.d <= ex.res.bound()) {
		ex.res.offer(Result{Object: v.obj, Dist: v.d, Exact: true})
	} else {
		ex.abandoned++
	}
	ex.boundBits.Store(math.Float64bits(ex.res.bound()))
}

func (ex *knnExec) terminate() {
	ex.terminated = true
	ex.done.Store(true)
}

// finish drains the pipeline, folds the commit-side counters into qs (the
// traversal is done, so no counter races), and returns the sorted answer.
func (ex *knnExec) finish() ([]Result, error) {
	close(ex.jobs)
	ex.wg.Wait()
	releaseSlots(ex.slots)
	qs := ex.qs
	qs.Verified += ex.verified
	qs.Compdists += ex.compdists
	qs.Abandoned += ex.abandoned
	qs.BatchedCandidates += ex.batched.Load()
	qs.EntriesPruned += ex.prunedAtCommit
	qs.TombstonesSkipped += ex.tombSkipped
	qs.DeltaCandidates += ex.deltaCands
	qs.VerifyTime += ex.verifyTime
	out := ex.res.sorted()
	qs.Discarded = qs.Verified - int64(len(out))
	return out, ex.err
}

// knnParallel is Algorithm 2 (exact when budget < 0, budgeted otherwise)
// with pipelined verification: the traversal below is the serial one, except
// that admitted entries go to the engine instead of being verified inline,
// and pruning uses the committed (never tighter than serial) bound.
func (t *Tree) knnParallel(ctx context.Context, q metric.Object, sc *queryScratch, k int, bound0 float64, qs *QueryStats, slots int, budget int64) ([]Result, error) {
	greedy := t.traversal == Greedy && budget < 0
	ex := t.newKNNExec(ctx, q, sc.kernel(t, q), k, bound0, qs, slots, budget, greedy)

	pq := &sc.pq
	if root, ok := t.bpt.Root(); ok {
		t.pushBox(sc, root, ex.bound(), qs)
	}
	deltaLive := t.deltaActive()
	if deltaLive {
		// Buffered inserts enter the same best-first frontier as base entries,
		// carrying their objects so workers skip the RAF read.
		t.seedDelta(sc, qs)
	}

	var travErr error
	for pq.Len() > 0 {
		if ex.done.Load() {
			break // committed termination, error, or exhausted budget
		}
		if budget >= 0 && ex.dispatched >= budget && !deltaLive {
			// Every remaining slot would exceed the budget. With a live write
			// buffer this shortcut is off: a dispatched candidate can turn out
			// tombstoned and commit without consuming budget, so the committed
			// check in commitLocked is the only exact gate.
			break
		}
		if err := ctxDone(ctx); err != nil {
			travErr = err
			break
		}
		item := pq.pop()
		if item.mind > ex.bound() {
			break // Lemma 3 on the committed bound: never earlier than serial
		}
		if !item.isNode() {
			ex.dispatch(pq.cand(item))
			continue
		}
		if err := t.readNode(sc, page.ID(item.ref)); err != nil {
			travErr = err
			break
		}
		qs.NodesRead++
		if !sc.node.Leaf || !greedy {
			// One committed-bound snapshot per node: like any stale bound it
			// only admits extras, which self-discard at commit.
			t.pushNode(sc, ex.bound(), qs)
			continue
		}
		leafBatch := sc.kb.cands[:0]
		for i, val := range sc.node.Vals {
			qs.EntriesScanned++
			mind := t.mindToCell(sc.qvec, sc.cellAt(i))
			if mind > ex.bound() {
				qs.EntriesPruned++
				continue
			}
			leafBatch = append(leafBatch, knnCand{mind: mind, val: val})
		}
		sc.kb.cands = leafBatch
		if len(leafBatch) > 0 {
			ex.dispatch(leafBatch...)
		}
	}

	out, vErr := ex.finish()
	if vErr != nil {
		return out, vErr
	}
	return out, travErr
}

// ---------------------------------------------------------------------------
// Similarity joins
// ---------------------------------------------------------------------------

// joinSink consumes candidate pairs that survived Algorithm 3's geometric
// pruning (Lemmas 5/6). flip reports that cur came from the O side, so the
// emitted pair is ⟨other, cur⟩.
type joinSink interface {
	pair(cur, other joinElem, flip bool) error
	finish() ([]JoinPair, error)
}

// joinSerial computes pair distances inline, exactly as before.
type joinSerial struct {
	ctx   context.Context
	t     *Tree
	eps   float64
	qs    *QueryStats
	pairs []JoinPair
}

func (s *joinSerial) pair(cur, other joinElem, flip bool) error {
	if err := ctxDone(s.ctx); err != nil {
		return err
	}
	qs := s.qs
	st := qs.stageStart()
	d, within := s.t.verifyDist(cur.obj, other.obj, s.eps)
	qs.stageAdd(&qs.VerifyTime, st)
	qs.Verified++
	qs.Compdists++
	if within {
		if flip {
			s.pairs = append(s.pairs, JoinPair{Q: other.obj, O: cur.obj, Dist: d})
		} else {
			s.pairs = append(s.pairs, JoinPair{Q: cur.obj, O: other.obj, Dist: d})
		}
	} else {
		qs.Discarded++
		if s.t.bounded {
			qs.Abandoned++
		}
	}
	return nil
}

func (s *joinSerial) finish() ([]JoinPair, error) { return s.pairs, nil }

// joinJob is one dispatched candidate pair; the objects are copied out of
// the merge lists, so later list evictions cannot race the workers.
type joinJob struct {
	seq  int64
	a, b metric.Object
	flip bool
}

type joinVerdict struct {
	job    joinJob
	d      float64
	within bool
	dur    time.Duration
	err    error
}

// joinExec fans pair verification out to workers. The candidate set has no
// feedback bound, so ordering matters only for output determinism and
// cancellation semantics: verdicts commit in dispatch order, which appends
// pairs in exactly the serial emission order and counts exactly the
// distances the serial run would have computed before a cancellation.
type joinExec struct {
	t     *Tree
	ctx   context.Context
	eps   float64
	qs    *QueryStats
	timed bool

	jobs  chan joinJob
	wg    sync.WaitGroup
	slots int
	done  atomic.Bool

	dispatched int64

	mu         sync.Mutex
	next       int64
	pending    map[int64]joinVerdict
	pairs      []JoinPair
	terminated bool
	err        error
	verified   int64
	compdists  int64
	discarded  int64
	abandoned  int64
	verifyTime time.Duration
}

func (t *Tree) newJoinExec(ctx context.Context, eps float64, qs *QueryStats, slots int) *joinExec {
	ex := &joinExec{
		t: t, ctx: ctx, eps: eps, qs: qs, timed: qs.timed,
		jobs:    make(chan joinJob, 4*slots),
		slots:   slots,
		pending: make(map[int64]joinVerdict),
	}
	ex.wg.Add(slots)
	for i := 0; i < slots; i++ {
		go ex.worker()
	}
	return ex
}

func (ex *joinExec) pair(cur, other joinElem, flip bool) error {
	if ex.done.Load() {
		return errStopTraversal
	}
	seq := ex.dispatched
	ex.dispatched++
	ex.jobs <- joinJob{seq: seq, a: cur.obj, b: other.obj, flip: flip}
	return nil
}

func (ex *joinExec) worker() {
	defer ex.wg.Done()
	raw := ex.t.dist.Unwrap()
	bounded := ex.t.bounded
	for job := range ex.jobs {
		v := joinVerdict{job: job}
		if ex.done.Load() {
			ex.submit(job.seq, v)
			continue
		}
		if err := ctxDone(ex.ctx); err != nil {
			v.err = err
			ex.submit(job.seq, v)
			continue
		}
		var st time.Time
		if ex.timed {
			st = time.Now()
		}
		// ε is a fixed bound (no feedback), so workers can evaluate the final
		// bounded decision directly; the commit only re-orders and counts.
		if bounded {
			v.d, v.within = metric.DistanceAtMost(raw, job.a, job.b, ex.eps)
		} else {
			v.d = raw.Distance(job.a, job.b)
			v.within = v.d <= ex.eps
		}
		if ex.timed {
			v.dur = time.Since(st)
		}
		ex.submit(job.seq, v)
	}
}

func (ex *joinExec) submit(seq int64, v joinVerdict) {
	ex.mu.Lock()
	ex.pending[seq] = v
	for {
		nv, ok := ex.pending[ex.next]
		if !ok {
			break
		}
		delete(ex.pending, ex.next)
		ex.next++
		ex.commitLocked(nv)
	}
	ex.mu.Unlock()
}

func (ex *joinExec) commitLocked(v joinVerdict) {
	if ex.terminated {
		return
	}
	if v.err != nil {
		ex.err = v.err
		ex.terminated = true
		ex.done.Store(true)
		return
	}
	ex.verified++
	ex.compdists++
	ex.t.dist.Add(1)
	ex.verifyTime += v.dur
	if v.within {
		if v.job.flip {
			ex.pairs = append(ex.pairs, JoinPair{Q: v.job.b, O: v.job.a, Dist: v.d})
		} else {
			ex.pairs = append(ex.pairs, JoinPair{Q: v.job.a, O: v.job.b, Dist: v.d})
		}
	} else {
		ex.discarded++
		if ex.t.bounded {
			ex.abandoned++
		}
	}
}

func (ex *joinExec) finish() ([]JoinPair, error) {
	close(ex.jobs)
	ex.wg.Wait()
	releaseSlots(ex.slots)
	qs := ex.qs
	qs.Verified += ex.verified
	qs.Compdists += ex.compdists
	qs.Discarded += ex.discarded
	qs.Abandoned += ex.abandoned
	qs.VerifyTime += ex.verifyTime
	return ex.pairs, ex.err
}
