package core

import (
	"context"
	"math"
	"sort"

	"spbtree/internal/metric"
	"spbtree/internal/page"
)

// KNN answers kNN(q, k) with the paper's Algorithm 2 (NNA): a best-first
// traversal over B+-tree entries ordered by their minimum mapped-space
// distance MIND to q, pruning entries with MIND > curND_k (Lemma 3) and
// terminating as soon as the heap's minimum crosses that bound. The pruning
// comparison is strict, so candidates tied with the bound are still verified
// and the answer is the canonical (distance, ID) top-k — independent of the
// traversal strategy, the quantization and any prior bound seeding, which is
// what makes the forest's staged shard scatter (DESIGN.md §15) byte-identical
// to a full scatter. With the Greedy strategy (Table 5), reaching a leaf
// verifies all of its qualifying objects at once, so no RAF page is read
// twice.
//
// On a storage or corruption error the candidates verified so far are
// returned (sorted by distance) alongside the non-nil error, so callers get
// a best-effort partial answer rather than silently losing objects.
//
// Use KNNWithStats to additionally observe the query's per-stage QueryStats,
// and KNNCtx for deadline- and cancellation-aware execution.
func (t *Tree) KNN(q metric.Object, k int) ([]Result, error) {
	return t.KNNCtx(context.Background(), q, k)
}

// knn is Algorithm 2, accumulating per-stage counts into qs. ctx is checked
// at every heap pop and every verification; on cancellation the best
// candidates found so far are returned with a typed ErrCanceled.
//
// bound0 seeds curND_k before any candidate is verified: the answer is the
// canonical top-k of {x : d(q,x) ≤ bound0}, as if k phantom results at
// distance bound0 (with infinite IDs) preceded the search. +Inf means
// unbounded. The forest's staged kNN scatter passes the first shard's k-th
// distance here so the remaining shards run bounded probes.
func (t *Tree) knn(ctx context.Context, q metric.Object, k int, bound0 float64, qs *QueryStats) ([]Result, error) {
	if k <= 0 || t.count == 0 {
		return nil, nil
	}
	sc := t.getScratch()
	defer sc.release()
	st := qs.stageStart()
	t.phi(q, sc.qvec)
	qs.Compdists += int64(len(sc.qvec))
	qs.stageAdd(&qs.PlanTime, st)

	root, rootOK := t.bpt.Root()
	if !rootOK && !t.deltaActive() {
		return nil, nil
	}
	if slots := t.planKNNSlots(sc.qvec, k, qs); slots > 0 {
		// Pipelined verification with ordered commits (exec.go): identical
		// results and verification counters, concurrent distance work.
		return t.knnParallel(ctx, q, sc, k, bound0, qs, slots, -1)
	}

	res := sc.res.reset(k, bound0)
	pq, kb := &sc.pq, &sc.kb
	if rootOK {
		t.pushBox(sc, root, res.bound(), qs)
	}
	if t.deltaActive() {
		t.seedDelta(sc, qs)
	}

	for pq.Len() > 0 {
		if err := ctxDone(ctx); err != nil {
			return res.sorted(), err
		}
		item := pq.pop()
		if item.mind > res.bound() {
			break // Lemma 3 early termination
		}
		if !item.isNode() {
			if t.batch && pq.Len() > 0 && !pq.peekIsNode() {
				// A run of entry pops with no tree node between them: buffer
				// the block and verify it through the batch kernel with
				// pop-order bound replay (DESIGN.md §13) — identical results
				// and counters to popping one entry at a time.
				kb.cands = append(kb.cands[:0], pq.cand(item))
				for len(kb.cands) < knnIncrementalBlock && pq.Len() > 0 && !pq.peekIsNode() {
					kb.cands = append(kb.cands, pq.cand(pq.pop()))
				}
				terminated, err := t.verifyKNNIncremental(ctx, q, sc, qs)
				if err != nil {
					return res.sorted(), err
				}
				if terminated {
					break // Lemma 3 early termination mid-run
				}
				continue
			}
			// A leaf entry (or buffered insert): fetch the object and verify.
			if _, err := t.verifyKNN(ctx, q, res, pq.cand(item), qs); err != nil {
				return res.sorted(), err
			}
			continue
		}
		if err := t.readNode(sc, page.ID(item.ref)); err != nil {
			return res.sorted(), err
		}
		qs.NodesRead++
		if !sc.node.Leaf || t.traversal != Greedy {
			t.pushNode(sc, res.bound(), qs)
			continue
		}
		// Greedy: verify the whole leaf now. With batch kernels the block goes
		// through verifyKNNBatch (DESIGN.md §13): scan-time pruning uses the
		// pre-leaf bound, and the batch replays each survivor at its committed
		// bound — identical results and counters to the inline loop, whose
		// bound tightens entry by entry.
		kb.cands = kb.cands[:0]
		for i, val := range sc.node.Vals {
			qs.EntriesScanned++
			c := knnCand{mind: t.mindToCell(sc.qvec, sc.cellAt(i)), val: val}
			if c.mind > res.bound() {
				qs.EntriesPruned++ // Lemma 3
			} else if t.batch {
				kb.cands = append(kb.cands, c)
			} else if _, err := t.verifyKNN(ctx, q, res, c, qs); err != nil {
				return res.sorted(), err
			}
		}
		if err := t.verifyKNNBatch(ctx, q, sc, qs); err != nil {
			return res.sorted(), err
		}
	}

	out := res.sorted()
	qs.Discarded = qs.Verified - int64(len(out))
	return out, nil
}

// sorted copies the current top-k out of the max-heap in ascending
// (distance, id) order.
func (r *knnResults) sorted() []Result {
	out := append([]Result(nil), r.items...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].Object.ID() < out[j].Object.ID()
	})
	return out
}

// verifyKNN resolves one admitted candidate — a base leaf entry (read from
// the RAF) or a buffered insert (object in hand) — computes its distance
// against the live curND_k bound and feeds the running top-k. With bounded
// kernels the evaluation abandons once the distance provably exceeds the
// bound — an offer would reject such a candidate anyway (its distance ranks
// after the heap top regardless of ID), so skipping it changes nothing
// observable. A candidate at exactly curND_k still completes (within ⇔ d ≤
// bound), so the heap's ID tie-break sees it. The ctx check gives
// verification-batch granularity: a canceled query stops before the next RAF
// page read and distance computation.
//
// counted reports whether a verification actually happened: a base record
// superseded by the write buffer is skipped after its read (it consumes no
// distance computation and no approximate-search budget).
func (t *Tree) verifyKNN(ctx context.Context, q metric.Object, res *knnResults, item knnCand, qs *QueryStats) (counted bool, err error) {
	if err := ctxDone(ctx); err != nil {
		return false, err
	}
	st := qs.stageStart()
	obj := item.obj
	if obj == nil {
		obj, err = t.raf.Read(item.val)
		if err != nil {
			qs.stageAdd(&qs.VerifyTime, st)
			return false, err
		}
		if t.deltaShadowed(obj.ID()) {
			qs.stageAdd(&qs.VerifyTime, st)
			qs.TombstonesSkipped++
			return false, nil
		}
	} else {
		qs.DeltaCandidates++
	}
	d, within := t.verifyDist(q, obj, res.bound())
	qs.stageAdd(&qs.VerifyTime, st)
	qs.Verified++
	qs.Compdists++
	if within {
		res.offer(Result{Object: obj, Dist: d, Exact: true})
	} else if t.bounded {
		qs.Abandoned++
	}
	return true, nil
}

// knnBatch is the serial traversal's batching scratch, reused across blocks:
// cands is the block — a greedy leaf's admitted entries, or a best-first run
// of consecutive entry pops.
type knnBatch struct {
	cands     []knnCand
	offsets   []uint64
	objs      []metric.Object
	readObjs  []metric.Object
	plens     []int
	tomb      []bool
	d         []float64
	within    []bool
	probeIdx  []int
	probeObjs []metric.Object
	pd        []float64
	pw        []bool
}

// grow sizes the per-candidate slices for n candidates.
func (b *knnBatch) grow(n int) {
	if cap(b.offsets) < n {
		b.offsets = make([]uint64, n)
		b.objs = make([]metric.Object, n)
		b.readObjs = make([]metric.Object, n)
		b.plens = make([]int, n)
		b.tomb = make([]bool, n)
		b.d = make([]float64, n)
		b.within = make([]bool, n)
		b.probeIdx = make([]int, n)
		b.probeObjs = make([]metric.Object, n)
		b.pd = make([]float64, n)
		b.pw = make([]bool, n)
	}
}

// knnIncrementalBlock caps how many consecutive entry pops the best-first
// traversal buffers into one batch verification.
const knnIncrementalBlock = 16

// verifyKNNIncremental resolves a run of consecutive entry pops — no tree
// node between them, so verifying them pushes nothing onto the frontier and
// the run is exactly the prefix the one-at-a-time loop would pop next — by
// one coalesced RAF read and one batch-kernel call, then replays each verdict
// in pop order against the live bound, exactly like verifyKNNBatch. The one
// difference from the per-leaf batch: the pop loop's reaction to MIND ≥
// curND_k is termination, not a per-entry prune, so the replay reports
// terminated=true at the first such item and discards the rest of the run —
// the serial loop would have broken there and never popped them. Buffered
// inserts in the run carry their object and count DeltaCandidates, as in the
// scalar path. Every counter and the result set match the scalar loop; a
// failed coalesced read falls back to it, surfacing the error at the same
// pop position.
func (t *Tree) verifyKNNIncremental(ctx context.Context, q metric.Object, sc *queryScratch, qs *QueryStats) (terminated bool, err error) {
	if err := ctxDone(ctx); err != nil {
		return false, err
	}
	res, kb := &sc.res, &sc.kb
	n := len(kb.cands)
	kb.grow(n)
	st := qs.stageStart()
	m := 0
	for _, it := range kb.cands {
		if it.obj == nil {
			kb.offsets[m] = it.val
			m++
		}
	}
	if m > 0 {
		if idx, rerr := t.raf.ReadBatch(kb.offsets[:m], kb.readObjs[:m], kb.plens[:m]); idx >= 0 || rerr != nil {
			// Coalesced read failed: replay the run on the scalar path, which
			// surfaces the error at the same pop position.
			qs.stageAdd(&qs.VerifyTime, st)
			for _, it := range kb.cands {
				if it.mind > res.bound() {
					return true, nil
				}
				if _, err := t.verifyKNN(ctx, q, res, it, qs); err != nil {
					return false, err
				}
			}
			return false, nil
		}
	}
	// Expand the compact read results to per-item slots, filter tombstones,
	// and build the probe list.
	probeIdx, probeObjs := kb.probeIdx[:0], kb.probeObjs[:0]
	j := 0
	for i, it := range kb.cands {
		if it.obj != nil {
			kb.objs[i] = it.obj
			kb.tomb[i] = false
			probeIdx = append(probeIdx, i)
			probeObjs = append(probeObjs, it.obj)
			continue
		}
		kb.objs[i] = kb.readObjs[j]
		j++
		kb.tomb[i] = t.deltaShadowed(kb.objs[i].ID())
		if !kb.tomb[i] {
			probeIdx = append(probeIdx, i)
			probeObjs = append(probeObjs, kb.objs[i])
		}
	}
	if len(probeObjs) > 0 {
		eff := math.Inf(1)
		if t.bounded {
			eff = res.bound()
		}
		p := len(probeObjs)
		sc.kernel(t, q).BatchAtMost(probeObjs, eff, kb.pd[:p], kb.pw[:p])
		qs.BatchedCandidates += int64(p)
		for jj, i := range probeIdx {
			kb.d[i], kb.within[i] = kb.pd[jj], kb.pw[jj]
		}
	}
	// Commit in pop order against the live bound.
	j = 0
	for i, it := range kb.cands {
		if it.mind > res.bound() {
			// Lemma 3 termination at this item's turn; the rest of the run is
			// the heap prefix the serial loop never pops.
			qs.stageAdd(&qs.VerifyTime, st)
			return true, nil
		}
		base := it.obj == nil
		var plen int
		if base {
			plen = kb.plens[j]
			j++
		}
		if kb.tomb[i] {
			t.raf.EmitRecordRead(it.val, plen)
			qs.TombstonesSkipped++
			continue
		}
		if base {
			t.raf.EmitRecordRead(it.val, plen)
		} else {
			qs.DeltaCandidates++
		}
		qs.Verified++
		qs.Compdists++
		t.dist.Add(1)
		if kb.within[i] && (!t.bounded || kb.d[i] <= res.bound()) {
			res.offer(Result{Object: kb.objs[i], Dist: kb.d[i], Exact: true})
		} else if t.bounded {
			qs.Abandoned++
		}
	}
	qs.stageAdd(&qs.VerifyTime, st)
	return false, nil
}

// verifyKNNBatch resolves one greedy leaf's admitted candidates through the
// batch kernel, replaying each verdict in scan order exactly as the parallel
// engine's ordered commit (exec.go): the batch evaluates against the pre-leaf
// bound snapshot on the unwrapped metric; each commit then re-checks the
// candidate's MIND against the current bound (a prune there is the Lemma 3
// prune the inline loop would have applied at that entry's turn, so
// EntriesPruned totals match) and re-checks a completed distance against the
// current bound (an excess there is the abandon the inline bounded evaluation
// would have reported). Only committed verifications count Verified/Compdists
// and advance the lifetime distance counter, so every counter — and the
// result set — is identical to the inline loop; the batch's extra work (reads
// and evaluations for commit-pruned candidates) stays as invisible as the
// parallel engine's speculation. A failed coalesced read falls back to the
// inline scalar path, surfacing the error at the same scan position.
func (t *Tree) verifyKNNBatch(ctx context.Context, q metric.Object, sc *queryScratch, qs *QueryStats) error {
	res, kb := &sc.res, &sc.kb
	if len(kb.cands) == 0 {
		return nil
	}
	if err := ctxDone(ctx); err != nil {
		return err
	}
	n := len(kb.cands)
	kb.grow(n)
	offsets, objs, plens := kb.offsets[:n], kb.objs[:n], kb.plens[:n]
	for i, c := range kb.cands {
		offsets[i] = c.val
	}
	st := qs.stageStart()
	if idx, err := t.raf.ReadBatch(offsets, objs, plens); idx >= 0 || err != nil {
		qs.stageAdd(&qs.VerifyTime, st)
		for _, c := range kb.cands {
			if c.mind > res.bound() {
				qs.EntriesPruned++
				continue
			}
			if _, err := t.verifyKNN(ctx, q, res, c, qs); err != nil {
				return err
			}
		}
		return nil
	}
	probeIdx, probeObjs := kb.probeIdx[:0], kb.probeObjs[:0]
	for i := range kb.cands {
		kb.tomb[i] = t.deltaShadowed(objs[i].ID())
		if !kb.tomb[i] {
			probeIdx = append(probeIdx, i)
			probeObjs = append(probeObjs, objs[i])
		}
	}
	if len(probeObjs) > 0 {
		eff := math.Inf(1)
		if t.bounded {
			eff = res.bound()
		}
		m := len(probeObjs)
		sc.kernel(t, q).BatchAtMost(probeObjs, eff, kb.pd[:m], kb.pw[:m])
		qs.BatchedCandidates += int64(m)
		for j, i := range probeIdx {
			kb.d[i], kb.within[i] = kb.pd[j], kb.pw[j]
		}
	}
	for i, c := range kb.cands {
		if c.mind > res.bound() {
			qs.EntriesPruned++ // the inline loop's Lemma 3 prune at this turn
			continue
		}
		if kb.tomb[i] {
			t.raf.EmitRecordRead(c.val, plens[i])
			qs.TombstonesSkipped++
			continue
		}
		qs.Verified++
		qs.Compdists++
		t.dist.Add(1)
		t.raf.EmitRecordRead(c.val, plens[i])
		if kb.within[i] && (!t.bounded || kb.d[i] <= res.bound()) {
			res.offer(Result{Object: objs[i], Dist: kb.d[i], Exact: true})
		} else if t.bounded {
			qs.Abandoned++
		}
	}
	qs.stageAdd(&qs.VerifyTime, st)
	return nil
}

// knnResults keeps the k best candidates in a max-heap so curND_k updates in
// O(log k). bound0 is the seeded starting bound (+Inf when unbounded): the
// heap then computes the canonical top-k of {x : d(q,x) ≤ bound0} — exactly
// the unbounded search over the data plus k phantom results at (bound0, ∞).
type knnResults struct {
	k      int
	bound0 float64
	items  []Result // max-heap by (Dist, ID)
}

// newKNNResults constructs a result heap seeded with bound0.
func newKNNResults(k int, bound0 float64) *knnResults {
	return new(knnResults).reset(k, bound0)
}

// reset readies r, keeping its backing array, for a query seeded with bound0.
// A NaN bound is treated as unbounded; 0 is a valid (maximally tight) bound.
func (r *knnResults) reset(k int, bound0 float64) *knnResults {
	if math.IsNaN(bound0) {
		bound0 = math.Inf(1)
	}
	r.k, r.bound0, r.items = k, bound0, r.items[:0]
	return r
}

// resultWorse reports whether a ranks strictly after b in the (Dist, ID)
// total order. Using it as the heap priority makes the k-th boundary
// deterministic under distance ties: of two equal-distance candidates the
// smaller ID wins a slot, regardless of arrival order — so serial and
// parallel executions return identical result sets.
func resultWorse(a, b Result) bool {
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.Object.ID() > b.Object.ID()
}

// bound returns curND_k: the seeded bound0 until k candidates exist.
func (r *knnResults) bound() float64 {
	if len(r.items) < r.k {
		return r.bound0
	}
	return r.items[0].Dist
}

func (r *knnResults) offer(x Result) {
	if x.Dist > r.bound0 {
		return // outside the seeded bound: a phantom (bound0, ∞) outranks it
	}
	if len(r.items) < r.k {
		r.items = append(r.items, x)
		r.up(len(r.items) - 1)
		return
	}
	if !resultWorse(r.items[0], x) {
		return
	}
	r.items[0] = x
	r.down(0)
}

func (r *knnResults) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !resultWorse(r.items[i], r.items[parent]) {
			break
		}
		r.items[parent], r.items[i] = r.items[i], r.items[parent]
		i = parent
	}
}

func (r *knnResults) down(i int) {
	for {
		l, rr := 2*i+1, 2*i+2
		big := i
		if l < len(r.items) && resultWorse(r.items[l], r.items[big]) {
			big = l
		}
		if rr < len(r.items) && resultWorse(r.items[rr], r.items[big]) {
			big = rr
		}
		if big == i {
			return
		}
		r.items[i], r.items[big] = r.items[big], r.items[i]
		i = big
	}
}
