// Package core implements the SPB-tree — the Space-filling curve and
// Pivot-based B+-tree of Chen et al. — and its query algorithms: range
// queries (Algorithm 1), kNN queries (Algorithm 2, verifying each leaf when
// the search reaches it), similarity joins (Algorithm 3), and the I/O and CPU
// cost models of Sections 4.4 and 5.3.
//
// An SPB-tree has three parts (paper Fig. 4): a pivot table mapping the
// metric space to an L∞ vector space, a B+-tree with MBB-augmented entries
// indexing the SFC values of the mapped (and δ-quantized) vectors, and a
// random access file (RAF) storing the actual objects in SFC order.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"spbtree/internal/bptree"
	"spbtree/internal/metric"
	"spbtree/internal/obs"
	"spbtree/internal/page"
	"spbtree/internal/pivot"
	"spbtree/internal/raf"
	"spbtree/internal/sfc"
)

// Options configures Build. How a candidate is verified is not configurable:
// every metric is evaluated at the caller's live bound through its prepared
// kernel (DESIGN.md §9.8), and range queries always apply Lemma 2 and test
// the entries of a partly covered leaf against RR on their stored cells
// (DESIGN.md §9.9).
type Options struct {
	// Distance is the metric; required.
	Distance metric.DistanceFunc
	// Codec decodes objects from the RAF; required.
	Codec metric.Codec
	// NumPivots is |P|; 0 selects 5, the paper's default (close to the
	// intrinsic dimensionality of its datasets).
	NumPivots int
	// Selector picks the pivots; nil selects HFI, the paper's algorithm.
	Selector pivot.Selector
	// Curve is the SFC family; Hilbert by default. Similarity joins require
	// ZOrder trees (Lemma 6).
	Curve sfc.Kind
	// DeltaFrac is δ expressed as a fraction of d+ for continuous metrics;
	// 0 selects the paper's default 0.005. Discrete metrics always use δ=1
	// when the bit budget allows.
	DeltaFrac float64
	// CacheSize is the buffer cache capacity in pages for each of the index
	// and data stores; the paper's default is 32. Negative disables caching.
	CacheSize int
	// IndexStore and DataStore are the page stores for the B+-tree and RAF.
	// nil selects fresh in-memory stores.
	IndexStore, DataStore page.Store
	// ShareMapping reuses another tree's pivot table and quantization so two
	// trees live in the same mapped space — required for similarity joins.
	ShareMapping *Tree
	// Seed seeds pivot selection and cost-model sampling; 0 means 1.
	Seed int64
}

// Tree is a built SPB-tree. Queries may run concurrently with each other;
// the structural mutators (Insert, Delete, Rebuild, Close) are serialized
// against them by an internal reader-writer lock, so a Rebuild can swap the
// storage substrates under live traffic without readers observing a torn
// tree. Every method that reads the substrates holds that lock until it
// returns; only the getters of what construction fixes (Pivots, CurveKind,
// Bits, Delta) read without it.
type Tree struct {
	// mu serializes structural mutation (Rebuild's substrate swap, Insert,
	// Delete, Close) against in-flight queries, which hold it in read mode.
	mu sync.RWMutex
	// id orders lock acquisition for two-tree joins (see rlockPair).
	id uint64

	dist  *metric.Counter
	codec metric.Codec

	pivots []metric.Object
	curve  sfc.Curve
	kind   sfc.Kind
	delta  float64 // effective cell width in distance units
	exact  bool    // cells are exact distances (discrete metric, δ=1)
	bits   int
	dPlus  float64

	bpt       *bptree.Tree
	raf       *raf.File
	idxSums   *page.ChecksumStore
	dataSums  *page.ChecksumStore
	idxCache  *page.Cache
	dataCache *page.Cache

	// bounded records that the metric implements metric.BoundedDistanceFunc,
	// so an evaluation that ends over its bound was abandoned early and
	// counts as QueryStats.Abandoned (DESIGN.md §10). Derived from the metric
	// at construction; it selects no code path.
	bounded bool

	// count is the live object total: base objects not shadowed by the write
	// buffer, plus buffered inserts. Maintained incrementally by the apply
	// helpers and re-derived from the snapshot at each compaction swap.
	count int

	// closed marks the tree shut down; every entry point checks it under the
	// lock it already takes and fails with ErrClosed.
	closed bool

	// wbuf is the in-memory write buffer of a durable tree (inserts +
	// tombstones absorbed ahead of compaction); nil on non-durable trees.
	// Guarded by mu.
	wbuf *deltaState

	// dur is the durable write-path machinery (WAL, generations, compactor);
	// nil on non-durable trees.
	dur *durableState

	// graph is the attached approximate tier (nil until BuildGraph succeeds);
	// invalidated — set nil — by every structural mutation of the base
	// substrates: non-durable Insert/Delete, Rebuild, and the compaction
	// swap. Guarded by mu.
	graph *graphTier

	cm costModel

	// tracer is the hook installed by SetTracer, fanned out to the B+-tree,
	// both caches and the RAF by wireTracer (and re-fanned after Rebuild).
	tracer obs.Tracer
	// metrics aggregates per-operation query counts, compdists/PA totals and
	// latency histograms over the tree's lifetime; every search entry point
	// records into it. Exposed by Metrics and PublishExpvar.
	metrics obs.Registry
}

// Result is one similarity-search answer.
type Result struct {
	// Object is the answer object, read back from the RAF.
	Object metric.Object
	// Dist is d(q, object) when Exact, else an upper bound proved by
	// Lemma 2 without computing the distance.
	Dist float64
	// Exact reports whether Dist was actually computed.
	Exact bool
}

// Build constructs an SPB-tree over objs: selects pivots, applies the
// two-stage pivot-and-SFC mapping, writes the RAF in ascending SFC order and
// bulk-loads the B+-tree (paper Section 3, Appendix B).
func Build(objs []metric.Object, opts Options) (*Tree, error) {
	if opts.Distance == nil {
		return nil, fmt.Errorf("core: Options.Distance is required")
	}
	if opts.Codec == nil {
		return nil, fmt.Errorf("core: Options.Codec is required")
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))

	t := &Tree{
		id:      treeIDs.Add(1),
		dist:    metric.NewCounter(opts.Distance),
		codec:   opts.Codec,
		kind:    opts.Curve,
		dPlus:   opts.Distance.MaxDistance(),
		bounded: metric.IsBounded(opts.Distance),
	}

	// Pivot table: either shared with a partner tree (joins need a common
	// mapped space) or freshly selected.
	if opts.ShareMapping != nil {
		s := opts.ShareMapping
		t.pivots = s.pivots
		t.delta = s.delta
		t.exact = s.exact
		t.bits = s.bits
		t.kind = s.kind
		t.dPlus = s.dPlus
	} else {
		k := opts.NumPivots
		if k == 0 {
			k = 5
		}
		sel := opts.Selector
		if sel == nil {
			sel = pivot.HFI{}
		}
		// Selection runs on the unwrapped metric: the paper's construction
		// compdists counts exactly the |P|·|O| pivot-mapping computations
		// (Table 6), with sample-based selection work excluded.
		t.pivots = sel.Select(objs, t.dist.Unwrap(), k, rng)
		if len(t.pivots) == 0 {
			return nil, fmt.Errorf("core: pivot selection returned no pivots (dataset size %d)", len(objs))
		}
		if err := t.chooseQuantization(opts.DeltaFrac); err != nil {
			return nil, err
		}
	}
	t.curve = sfc.New(t.kind, len(t.pivots), t.bits)

	// Stores and caches.
	idxStore := opts.IndexStore
	if idxStore == nil {
		idxStore = page.NewMemStore()
	}
	dataStore := opts.DataStore
	if dataStore == nil {
		dataStore = page.NewMemStore()
	}
	cacheSize := opts.CacheSize
	if cacheSize == 0 {
		cacheSize = 32
	}
	if cacheSize < 0 {
		cacheSize = 0
	}
	t.cm.init(len(t.pivots), t.dPlus, seed)
	t.cm.cellWidth = t.delta
	if opts.ShareMapping != nil {
		t.cm.precision = opts.ShareMapping.cm.precision
		t.cm.pairDists = opts.ShareMapping.cm.pairDists
	} else {
		// Measure Definition 1's precision of the chosen pivot set and keep
		// the sampled pairwise distances: they calibrate the kNN cost model
		// (precision) and supply the homogeneous distance distribution for
		// eND_k. The unwrapped metric keeps these sample computations out of
		// the compdists accounting.
		raw := t.dist.Unwrap()
		// The pair sample scales with the dataset so the kNN cost model's
		// small-k quantiles stay above the sample resolution.
		nPairs := len(objs)
		if nPairs < 1000 {
			nPairs = 1000
		}
		if nPairs > 20000 {
			nPairs = 20000
		}
		pairs := pivot.SamplePairs(objs, raw, nPairs, rng)
		t.cm.precision = pivot.Precision(t.pivots, pairs, raw)
		t.cm.pairDists = make([]float64, len(pairs))
		for i, p := range pairs {
			t.cm.pairDists[i] = p.D
		}
		sort.Float64s(t.cm.pairDists)
	}

	// First mapping stage: φ(o) for every object, collecting cost-model
	// distributions on the way.
	ms := make([]keyed, len(objs))
	vec := make([]float64, len(t.pivots))
	cells := make(sfc.Point, len(t.pivots))
	for i, o := range objs {
		t.phi(o, vec)
		if err := t.validateVec(o, vec); err != nil {
			return nil, err
		}
		t.cm.observe(vec, rng)
		t.cells(vec, cells)
		cell := sfc.Pack(cells, t.bits)
		ms[i] = keyed{key: t.curve.EncodeCell(cell), cell: cell, obj: o}
	}
	// Second stage: RAF in ascending SFC order, then the B+-tree
	// bulk-loaded with (key, offset).
	sortKeyed(ms)
	sub, err := bulkLoad(idxStore, dataStore, cacheSize, cacheSize, t.curve, t.codec, ms)
	if err != nil {
		return nil, err
	}
	t.adopt(sub, len(objs))

	if err := t.cm.snapshotBoxes(t); err != nil {
		return nil, err
	}
	return t, nil
}

// keyed is one live object under its SFC key and cell word.
type keyed struct {
	key, cell uint64
	obj       metric.Object
}

// sortKeyed orders by SFC value; ties broken by id for determinism.
func sortKeyed(live []keyed) {
	sort.Slice(live, func(i, j int) bool {
		if live[i].key != live[j].key {
			return live[i].key < live[j].key
		}
		return live[i].obj.ID() < live[j].obj.ID()
	})
}

// substrates are the six values a tree reaches its base through: per store
// a checksum layer and the buffer cache above it, the B+-tree over the index
// cache and the RAF over the data cache.
type substrates struct {
	idxSums, dataSums   *page.ChecksumStore
	idxCache, dataCache *page.Cache
	bpt                 *bptree.Tree
	raf                 *raf.File
}

// bulkLoad builds fresh substrates over the two stores and loads live, in
// key order, into them: the objects appended to the RAF in the order given,
// the RAF flushed, the B+-tree bulk-loaded with the (cell, offset) entries,
// which are (key, offset) sorted because the offsets ascend. Every page
// write is checksummed below the buffer cache, so cache misses validate the
// bytes the moment they come off the store. The stores stay the caller's to
// close, on failure too.
func bulkLoad(idxStore, dataStore page.Store, idxCap, dataCap int, curve sfc.Curve, codec metric.Codec, live []keyed) (substrates, error) {
	var s substrates
	s.idxSums = page.NewChecksumStore(idxStore)
	s.dataSums = page.NewChecksumStore(dataStore)
	s.idxCache = page.NewCache(s.idxSums, idxCap)
	s.dataCache = page.NewCache(s.dataSums, dataCap)
	var err error
	if s.bpt, err = bptree.New(s.idxCache, bptree.Options{Geometry: curve}); err != nil {
		return s, err
	}
	s.raf = raf.New(s.dataCache, codec)
	entries := make([]bptree.Entry, len(live))
	keys := make([]uint64, len(live))
	for i, e := range live {
		off, err := s.raf.Append(e.obj)
		if err != nil {
			return s, err
		}
		entries[i], keys[i] = bptree.Entry{Cell: e.cell, Val: off}, e.key
	}
	if err := s.raf.Flush(); err != nil {
		return s, err
	}
	return s, s.bpt.BulkLoad(entries, keys)
}

// adopt switches the tree onto s and its count of live objects.
func (t *Tree) adopt(s substrates, count int) {
	t.idxSums, t.dataSums = s.idxSums, s.dataSums
	t.idxCache, t.dataCache = s.idxCache, s.dataCache
	t.bpt, t.raf = s.bpt, s.raf
	t.count = count
}

// chooseQuantization fixes δ and the per-dimension bit budget. Discrete
// metrics use δ=1 (cells are exact distances); continuous metrics partition
// [0, d+] into 1/DeltaFrac cells. Either way bits×|P| must fit the 64-bit
// SFC key, coarsening δ if necessary (pruning only weakens, never breaks).
func (t *Tree) chooseQuantization(deltaFrac float64) error {
	n := len(t.pivots)
	maxBits := 64 / n
	if maxBits > 32 {
		maxBits = 32
	}
	if maxBits < 1 {
		return fmt.Errorf("core: %d pivots cannot fit a 64-bit SFC key", n)
	}
	if t.dist.Discrete() {
		cellsNeeded := uint64(math.Floor(t.dPlus)) + 1
		bits := bitsFor(cellsNeeded)
		if bits <= maxBits {
			t.bits = bits
			t.delta = 1
			t.exact = true
			return nil
		}
		t.bits = maxBits
		t.delta = t.dPlus / float64(uint64(1)<<maxBits-1)
		t.exact = false
		return nil
	}
	if deltaFrac == 0 {
		deltaFrac = 0.005
	}
	if deltaFrac < 0 || deltaFrac >= 1 {
		return fmt.Errorf("core: DeltaFrac %v out of (0, 1)", deltaFrac)
	}
	cellsNeeded := uint64(math.Ceil(1/deltaFrac)) + 1
	bits := bitsFor(cellsNeeded)
	if bits > maxBits {
		bits = maxBits
	}
	t.bits = bits
	// Effective δ so that d+ lands in the last cell.
	t.delta = t.dPlus * deltaFrac
	if minDelta := t.dPlus / float64(uint64(1)<<bits-1); t.delta < minDelta {
		t.delta = minDelta
	}
	t.exact = false
	return nil
}

func bitsFor(cells uint64) int {
	bits := 1
	for uint64(1)<<bits < cells {
		bits++
	}
	return bits
}

// Pivots returns the pivot table.
func (t *Tree) Pivots() []metric.Object { return t.pivots }

// Len returns the number of live objects: the base tree merged with any
// buffered inserts and tombstones awaiting compaction.
func (t *Tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.count
}

// CurveKind returns which SFC the tree uses.
func (t *Tree) CurveKind() sfc.Kind { return t.kind }

// Bits returns the per-dimension bit budget of the SFC grid.
func (t *Tree) Bits() int { return t.bits }

// Delta returns the effective cell width in distance units.
func (t *Tree) Delta() float64 { return t.delta }

// SetWorkers does nothing: every query runs on its caller's goroutine. It
// exists only because the frozen benchmark harness (bench/) still calls it
// for its tree / tree.serial rung; it goes with that rung in the next
// benchmark-only change.
func (t *Tree) SetWorkers(int) {}

// verifyDist is the pairwise evaluator of the paths that verify one pair at
// a time — the join and the write buffer's delta passes; query
// candidates go through resolveBlock. It evaluates d(q, obj) against the
// caller's live bound: a metric with a bounded kernel may stop as soon as the
// distance provably exceeds the bound (within = false, d unspecified), any
// other evaluates exactly. Either way within ⇔ d(q, obj) ≤ bound, and d is
// the exact distance when within. The caller counts the evaluation
// (Verified/Compdists) and, when !within and t.bounded, one Abandoned.
func (t *Tree) verifyDist(q, obj metric.Object, bound float64) (d float64, within bool) {
	return t.dist.DistanceAtMost(q, obj, bound)
}

// Stats is a per-operation measurement in the paper's metrics.
type Stats struct {
	// PageAccesses is PA: physical page reads+writes below the caches,
	// summed over the B+-tree and RAF stores. It always equals
	// IndexPageAccesses + DataPageAccesses.
	PageAccesses int64
	// IndexPageAccesses is the B+-tree store's share of PA.
	IndexPageAccesses int64
	// DataPageAccesses is the RAF store's share of PA.
	DataPageAccesses int64
	// DistanceComputations is compdists.
	DistanceComputations int64
	// Elapsed is wall time.
	Elapsed time.Duration
}

// ResetStats zeroes both stores' I/O counters and the distance counter and
// flushes both caches — the paper's cold-start protocol before each of its
// 500 measured queries.
func (t *Tree) ResetStats() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.idxCache.Stats().Reset()
	t.dataCache.Stats().Reset()
	t.dist.Reset()
	t.idxCache.Flush()
	t.dataCache.Flush()
}

// WarmReset zeroes the counters but keeps cache contents, for measuring
// sequences that intentionally share a warm cache.
func (t *Tree) WarmReset() {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.idxCache.Stats().Reset()
	t.dataCache.Stats().Reset()
	t.dist.Reset()
}

// TakeStats reads the counters accumulated since the last reset. Each store's
// accesses are counted exactly once: the caches delegate Stats to the base
// store below the checksum layer, so neither checksumming nor cache hits
// inflate PA (see DESIGN.md §7).
func (t *Tree) TakeStats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx := t.idxCache.Stats().Accesses()
	data := t.dataCache.Stats().Accesses()
	return Stats{
		PageAccesses:         idx + data,
		IndexPageAccesses:    idx,
		DataPageAccesses:     data,
		DistanceComputations: t.dist.Count(),
	}
}

// StorageBytes returns the index footprint: B+-tree pages plus RAF pages
// plus the pivot table, in bytes (paper Table 6's Storage column).
func (t *Tree) StorageBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	pivotBytes := 0
	for _, p := range t.pivots {
		pivotBytes += len(p.AppendBinary(nil)) + 12
	}
	return int64(t.idxCache.NumPages())*page.Size + int64(t.raf.PagesUsed())*page.Size + int64(pivotBytes)
}

// Sync flushes the RAF's buffered tail page and forces both page stores to
// stable storage. Until Sync (or SaveAtomic) succeeds, completed writes may
// still sit in OS buffers.
func (t *Tree) Sync() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.syncLocked()
}

// syncLocked is Sync's body, for callers already holding the write lock.
func (t *Tree) syncLocked() error {
	if err := t.raf.Flush(); err != nil {
		return err
	}
	if err := t.idxCache.Sync(); err != nil {
		return err
	}
	return t.dataCache.Sync()
}

// Close syncs and closes both page stores, so a clean shutdown is durable.
// The tree must not be used afterwards: every later operation — and every
// mutator still pending when Close ran — fails with ErrClosed instead of
// racing the teardown. On durable trees Close first closes the WAL (failing
// blocked Append callers) and waits for the compactor goroutine to exit, so
// no background work outlives the tree.
func (t *Tree) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	t.closed = true
	t.mu.Unlock()
	var walErr error
	if t.dur != nil {
		close(t.dur.done)
		// Closing the log first unblocks mutators parked in Append; they see
		// wal.ErrClosed and surface core.ErrClosed.
		walErr = t.dur.log.Close()
		t.dur.wg.Wait()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	syncErr := t.syncLocked()
	idxErr := t.idxCache.Close()
	dataErr := t.dataCache.Close()
	if walErr != nil {
		return walErr
	}
	if syncErr != nil {
		return syncErr
	}
	if idxErr != nil {
		return idxErr
	}
	return dataErr
}

// Measure runs fn against cold caches and returns the observed Stats.
func (t *Tree) Measure(fn func() error) (Stats, error) {
	t.ResetStats()
	start := time.Now()
	err := fn()
	s := t.TakeStats()
	s.Elapsed = time.Since(start)
	return s, err
}
