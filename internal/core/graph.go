package core

import (
	"context"
	"errors"
	"math"

	"spbtree/internal/graph"
	"spbtree/internal/metric"
	"spbtree/internal/raf"
	"spbtree/internal/recall"
	"spbtree/internal/sfc"
)

// ErrNoGraph is returned by an OpKNNGraph Query when the tree has no
// live approximate graph: none was ever built, the last one was invalidated
// by a structural mutation (Insert/Delete/Rebuild/compaction swap), or a
// BuildGraph has not yet been re-run. Callers are expected to fall back to
// the exact path (Query.Exact) — the forest and HTTP layers do exactly that.
var ErrNoGraph = errors.New("core: no approximate graph built")

// ErrGraphStale is returned by BuildGraph when a structural mutation swapped
// or grew the storage substrate while construction ran off-lock; the built
// graph would reference stale offsets, so it is discarded. Retry under a
// write-quiet window (durable writes do not trigger this — they buffer in
// the delta, which graph queries merge at search time).
var ErrGraphStale = errors.New("core: graph build raced a structural mutation")

// DefaultEf is the beam width used when SearchOptions.Ef is zero.
const DefaultEf = 64

// GraphOptions configures BuildGraph; the zero value selects the defaults of
// the graph package (K=16, ρ=0.5, 12 iterations max, convergence at
// 0.002·K·n updates, 8 entry points).
type GraphOptions struct {
	// K is the number of graph neighbors kept per object.
	K int
	// Rho is the NN-descent sample rate.
	Rho float64
	// MaxIters caps the NN-descent iterations.
	MaxIters int
	// Delta is the NN-descent convergence threshold (fraction of K·n updates
	// per iteration below which construction stops).
	Delta float64
	// Entries is the number of fixed beam-search entry points.
	Entries int
	// Seed seeds the construction sampling; 0 means 1.
	Seed int64
}

// SearchOptions tunes one approximate kNN query.
type SearchOptions struct {
	// Ef is the beam width — the size of the sorted candidate/visited set.
	// Larger values raise recall and cost; 0 selects DefaultEf, values
	// below k are raised to k.
	Ef int
	// TargetRecall, when Ef is 0, selects the smallest calibrated beam width
	// whose measured recall reached this target (see CalibrateEf). Without a
	// stored calibration — or when no calibrated width reached the target —
	// the largest calibrated width (or DefaultEf, respectively) applies.
	// Ef > 0 takes precedence.
	TargetRecall float64
}

// graphTier is the attached approximate tier: the graph plus the identity of
// the RAF it was built against, so queries can detect (belt and braces — the
// mutators already invalidate eagerly) that the substrate was swapped.
// offIdx maps RAF offset to graph node index; queries use it to translate
// the query's B+-tree (SFC) position into beam-search seed nodes.
type graphTier struct {
	g      *graph.Graph
	raf    *raf.File
	offIdx map[uint64]int32
	// efCurve is the stored (ef, recall) calibration of CalibrateEf,
	// ascending in ef. It lives on the tier, so it dies with the graph it
	// measured — a rebuilt graph needs a fresh calibration.
	efCurve []EfCalibration
}

// newGraphTier wraps a graph for attachment, deriving the offset→node map.
func newGraphTier(g *graph.Graph, r *raf.File) *graphTier {
	offIdx := make(map[uint64]int32, len(g.Offs))
	for i, off := range g.Offs {
		offIdx[off] = int32(i)
	}
	return &graphTier{g: g, raf: r, offIdx: offIdx}
}

// HasGraph reports whether an approximate graph is live on the tree.
func (t *Tree) HasGraph() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.graphLive() != nil
}

// graphLive returns the attached graph if it matches the current substrate.
// Callers hold t.mu (either mode).
func (t *Tree) graphLive() *graph.Graph {
	if t.graph == nil || t.graph.raf != t.raf {
		return nil
	}
	return t.graph.g
}

// BuildGraph constructs (or replaces) the tree's approximate k-neighbor
// graph over the current live base objects; see BuildGraphCtx.
func (t *Tree) BuildGraph(opts GraphOptions) error {
	return t.BuildGraphCtx(context.Background(), opts)
}

// BuildGraphCtx runs NN-descent over the tree's live base object set and
// attaches the result as the approximate query tier. The object snapshot is
// taken under the read lock (concurrent queries keep flowing, mutators wait
// as they would for any read); construction itself runs off-lock, honoring
// ctx; the finished graph attaches under the write lock only if no
// structural mutation intervened (ErrGraphStale otherwise).
//
// Buffered durable writes are not part of the graph: queries merge the delta
// buffer and tombstone filter at search time, so a graph stays valid — and
// correct — across durable Insert/Delete traffic until compaction folds the
// buffer into a new base (which invalidates the graph; rebuild it after).
// Non-durable Insert/Delete and Rebuild invalidate the graph immediately.
//
// Construction runs on runtime.GOMAXPROCS(0) goroutines and builds the same
// graph at any setting. Its distances are evaluated through the tree's
// counted metric — threshold-aware when the metric has a bounded kernel — so
// the lifetime compdists counter covers construction cost.
func (t *Tree) BuildGraphCtx(ctx context.Context, opts GraphOptions) error {
	t.mu.RLock()
	if t.closed {
		t.mu.RUnlock()
		return ErrClosed
	}
	baseRAF := t.raf
	baseCount := t.raf.Count()
	baseSize := t.raf.Size()
	var (
		ids  []uint64
		offs []uint64
		objs []metric.Object
	)
	c := t.bpt.SeekFirst()
	for ; c.Valid(); c.Next() {
		obj, err := t.raf.Read(c.Val())
		if err != nil {
			t.mu.RUnlock()
			return err
		}
		if t.deltaShadowed(obj.ID()) {
			continue
		}
		ids = append(ids, obj.ID())
		offs = append(offs, c.Val())
		objs = append(objs, obj)
	}
	t.mu.RUnlock()
	if err := c.Err(); err != nil {
		return err
	}

	gopts := graph.Options{
		K: opts.K, Rho: opts.Rho, MaxIters: opts.MaxIters, Delta: opts.Delta,
		Entries: opts.Entries, Seed: opts.Seed,
	}
	dist := func(i, j int, thr float64) (float64, bool) {
		return t.dist.DistanceAtMost(objs[i], objs[j], thr)
	}
	g, err := graph.Build(ctx, len(objs), dist, gopts)
	if err != nil {
		return err
	}
	g.IDs = ids
	g.Offs = offs
	g.BaseCount = uint64(baseCount)
	g.BaseSize = baseSize

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	if t.raf != baseRAF || t.raf.Count() != baseCount || t.raf.Size() != baseSize {
		return ErrGraphStale
	}
	t.graph = newGraphTier(g, baseRAF)
	return nil
}

// graphSeeds translates the query's position on the space-filling curve into
// beam-search seed nodes: map q through the pivots, encode the SFC key, seek
// the B+-tree to it, and return the window of up to ef graph nodes around
// that position (graph node indices are assigned in B+-tree iteration order,
// so a contiguous index window IS an SFC window). This is the substrate
// doing the entry-point work the fixed entries cannot: the SPB-tree clusters
// similar objects on the curve, so the window lands inside the query's
// cluster even when that cluster shares a weakly-connected graph component
// with others and the component's entry sits an inter-cluster plateau away.
// Charges the pivot mapping to Compdists like every exact query. Callers
// hold t.mu.
func (t *Tree) graphSeeds(q metric.Object, ef int, qs *QueryStats) []int32 {
	g := t.graph.g
	n := g.Len()
	if n == 0 {
		return nil
	}
	np := len(t.pivots)
	qvec := make([]float64, np)
	t.phi(q, qvec)
	qs.Compdists += int64(np)
	cells := make(sfc.Point, np)
	t.cells(qvec, cells)
	key := t.curve.Encode(cells)

	// The first indexed record at or after the key anchors the window; a few
	// records may be missing from the graph (delta-shadowed at build time),
	// so probe forward a bounded number of steps. Falling off the end — or
	// never finding a graph node — anchors at the last node.
	center := int32(n - 1)
	c := t.bpt.Seek(key)
	for tries := 0; c.Valid() && tries < 64; tries++ {
		if idx, ok := t.graph.offIdx[c.Val()]; ok {
			center = idx
			break
		}
		c.Next()
	}
	lo := center - int32(ef/2)
	hi := lo + int32(ef)
	if lo < 0 {
		lo = 0
	}
	if hi > int32(n) {
		hi = int32(n)
	}
	seeds := make([]int32, 0, hi-lo)
	for v := lo; v < hi; v++ {
		seeds = append(seeds, v)
	}
	return seeds
}

// knnGraph is the beam-search body: graph candidates (each expansion one
// resolveBlock: batch-read from the RAF, tombstone-filtered, batch-evaluated
// through the metric's kernels), then merged with the buffered durable
// inserts exactly like the exact paths. Counters: every distance evaluation
// charges Verified+Compdists (graph-side ones additionally GraphCandidates, buffered ones
// DeltaCandidates), expansions charge GraphHops, and shadowed base records
// charge TombstonesSkipped.
func (t *Tree) knnGraph(ctx context.Context, q metric.Object, k int, opts SearchOptions, qs *QueryStats) ([]Result, error) {
	g := t.graphLive()
	if g == nil {
		return nil, ErrNoGraph
	}
	if k <= 0 || t.count == 0 {
		return nil, nil
	}
	ef := opts.Ef
	if ef <= 0 && opts.TargetRecall > 0 {
		ef = t.efForRecall(opts.TargetRecall)
	}
	if ef <= 0 {
		ef = DefaultEf
	}
	if ef < k {
		ef = k
	}

	st := qs.stageStart()
	seeds := t.graphSeeds(q, ef, qs)
	qs.stageAdd(&qs.PlanTime, st)

	sc := t.getScratch()
	defer sc.release()
	blk := &sc.blk
	byNode := make(map[int32]metric.Object, 2*ef)

	eval := func(nodes []int32, thr float64, d []float64, within []bool) error {
		if err := ctxDone(ctx); err != nil {
			return err
		}
		blk.cands = blk.cands[:0]
		for _, v := range nodes {
			blk.cands = append(blk.cands, candidate{val: g.Offs[v]})
		}
		resolved, probed, rerr := t.resolveBlock(sc, q, thr, qs)
		t.dist.Add(int64(probed))
		for i, v := range nodes {
			if i == resolved {
				return rerr
			}
			t.raf.EmitRecordRead(g.Offs[v], blk.plens[i])
			if blk.tomb[i] {
				// Shadowed by a tombstone or a newer buffered version: the
				// buffered side of the merge owns this ID.
				qs.TombstonesSkipped++
				d[i], within[i] = math.Inf(1), false
				continue
			}
			d[i], within[i] = blk.d[i], blk.within[i]
			qs.Verified++
			qs.Compdists++
			qs.GraphCandidates++
			if within[i] {
				byNode[v] = blk.keep(i)
			} else if t.bounded {
				qs.Abandoned++
			}
		}
		return nil
	}

	cands, sstats, serr := g.Search(ctx, eval, ef, seeds)
	qs.GraphHops += sstats.Hops
	res := newKNNResults(k, math.Inf(1))
	for _, c := range cands {
		if o := byNode[c.Node]; o != nil {
			res.offer(Result{Object: o, Dist: c.Dist, Exact: true})
		}
	}
	if serr == nil {
		// Merge the buffered durable inserts brute-force against the running
		// bound — the delta is small by design (compaction bounds it).
		for _, e := range t.deltaEntriesSorted() {
			if err := ctxDone(ctx); err != nil {
				serr = err
				break
			}
			st := qs.stageStart()
			d, within := t.verifyDist(q, e.obj, res.bound())
			qs.stageAdd(&qs.VerifyTime, st)
			qs.DeltaCandidates++
			qs.Verified++
			qs.Compdists++
			if within {
				res.offer(Result{Object: e.obj, Dist: d, Exact: true})
			} else if t.bounded {
				qs.Abandoned++
			}
		}
	}
	out := res.sorted()
	qs.Discarded = qs.Verified - int64(len(out))
	if serr != nil && ctx.Err() != nil {
		// Normalize any cancellation-caused error to the typed contract.
		serr = canceledErr(ctx)
	}
	return out, serr
}

// ---------------------------------------------------------------------------
// ef auto-tuning from a recall target
// ---------------------------------------------------------------------------

// EfCalibration is one measured point of the beam-width/recall curve.
type EfCalibration struct {
	// Ef is the beam width measured.
	Ef int
	// Recall is the mean recall@k observed at that width over the
	// calibration sample.
	Recall float64
}

// calibrateK is the recall@k depth CalibrateEf measures at — the standard
// k=10 of the repo's recall experiments.
const calibrateK = 10

// calibrateEfWidths is the beam-width sweep CalibrateEf measures.
var calibrateEfWidths = []int{16, 24, 32, 48, 64, 96, 128, 192, 256}

// EfCurve returns the stored (ef, recall) calibration for the live graph, or
// nil when none exists (no CalibrateEf run, or the graph was rebuilt since).
func (t *Tree) EfCurve() []EfCalibration {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.graphLive() == nil {
		return nil
	}
	return append([]EfCalibration(nil), t.graph.efCurve...)
}

// efForRecall resolves a recall target against the stored curve: the
// smallest calibrated width whose running-max recall reached the target, or
// the largest calibrated width when none did (recall is capped by graph
// connectivity — the calibration's honest best effort). 0 when no curve is
// stored. Callers hold t.mu.
func (t *Tree) efForRecall(target float64) int {
	if t.graphLive() == nil || len(t.graph.efCurve) == 0 {
		return 0
	}
	curve := t.graph.efCurve
	best := 0.0
	for _, p := range curve {
		if p.Recall > best {
			best = p.Recall
		}
		if best >= target {
			return p.Ef
		}
	}
	return curve[len(curve)-1].Ef
}

// CalibrateEf measures the live graph's recall@10 across a sweep of beam
// widths on a deterministic sample of indexed objects, stores the resulting
// (ef, recall) curve on the graph tier, and returns the smallest width whose
// recall reached target (or the largest measured width when the target is
// out of reach — raise GraphOptions.K or rebuild before expecting more).
// Afterwards SearchOptions{TargetRecall: r} resolves beam widths from the
// stored curve.
//
// sample caps the number of calibration queries (0 selects 64; the sample is
// an even stride over the index, so it covers the curve). Calibration runs
// real exact and graph queries: the tree's lifetime compdists counter and
// aggregate metrics advance accordingly. The curve dies with the graph —
// rebuilding invalidates it, so recalibrate after BuildGraph.
func (t *Tree) CalibrateEf(target float64, sample int) (int, error) {
	return t.CalibrateEfCtx(context.Background(), target, sample)
}

// CalibrateEfCtx is CalibrateEf honoring ctx; cancellation aborts between
// queries with no curve stored.
func (t *Tree) CalibrateEfCtx(ctx context.Context, target float64, sample int) (int, error) {
	if sample <= 0 {
		sample = 64
	}
	t.mu.RLock()
	if t.closed {
		t.mu.RUnlock()
		return 0, ErrClosed
	}
	tier := t.graph
	if t.graphLive() == nil {
		t.mu.RUnlock()
		return 0, ErrNoGraph
	}
	// Deterministic query sample: an even stride over the B+-tree (= SFC)
	// order, skipping delta-shadowed records.
	var queries []metric.Object
	if n := t.count; n > 0 {
		stride := n / sample
		if stride < 1 {
			stride = 1
		}
		i := 0
		c := t.bpt.SeekFirst()
		for ; c.Valid() && len(queries) < sample; c.Next() {
			if i%stride == 0 {
				obj, err := t.raf.Read(c.Val())
				if err != nil {
					t.mu.RUnlock()
					return 0, err
				}
				if !t.deltaShadowed(obj.ID()) {
					queries = append(queries, obj)
				}
			}
			i++
		}
		if err := c.Err(); err != nil {
			t.mu.RUnlock()
			return 0, err
		}
	}
	t.mu.RUnlock()
	if len(queries) == 0 {
		return 0, ErrNoGraph
	}

	k := calibrateK
	// Exact baselines through the public entry point (it takes its own read
	// lock), so calibration composes with live traffic.
	exactIDs := make([][]uint64, len(queries))
	for i, q := range queries {
		res, _, err := t.Query(ctx, Query{Op: OpKNN, Q: q, K: k})
		if err != nil {
			return 0, err
		}
		ids := make([]uint64, len(res))
		for j, x := range res {
			ids[j] = x.Object.ID()
		}
		exactIDs[i] = ids
	}

	curve := make([]EfCalibration, 0, len(calibrateEfWidths))
	for _, ef := range calibrateEfWidths {
		var sum float64
		for i, q := range queries {
			res, _, err := t.Query(ctx, Query{Op: OpKNNGraph, Q: q, K: k, Search: SearchOptions{Ef: ef}})
			if err != nil {
				return 0, err
			}
			got := make([]uint64, len(res))
			for j, x := range res {
				got[j] = x.Object.ID()
			}
			sum += recall.AtK(exactIDs[i], got, k)
		}
		curve = append(curve, EfCalibration{Ef: ef, Recall: sum / float64(len(queries))})
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return 0, ErrClosed
	}
	if t.graph != tier || t.graphLive() == nil {
		// The graph was rebuilt or invalidated mid-calibration; the curve
		// measured a dead graph.
		return 0, ErrGraphStale
	}
	t.graph.efCurve = curve
	best := 0.0
	for _, p := range curve {
		if p.Recall > best {
			best = p.Recall
		}
		if best >= target {
			return p.Ef, nil
		}
	}
	return curve[len(curve)-1].Ef, nil
}
