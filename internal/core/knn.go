package core

import (
	"context"
	"sort"

	"spbtree/internal/metric"
	"spbtree/internal/page"
)

// KNN answers kNN(q, k) with the paper's Algorithm 2 (NNA): a best-first
// traversal over B+-tree nodes ordered by their minimum mapped-space distance
// MIND to q, pruning entries with MIND > curND_k (Lemma 3) and terminating as
// soon as the heap's minimum crosses that bound. A leaf is verified whole when
// the search reaches it — the paper's greedy rule (Table 5) — so its RAF pages
// are read once and its entries never pass through the frontier. The pruning
// comparison is strict, so candidates tied with the bound are still verified
// and the answer is the canonical (distance, ID) top-k — independent of the
// visit order, the quantization and any prior bound seeding, which is what
// makes the forest's staged shard scatter (DESIGN.md §15) byte-identical to a
// full scatter.
//
// On a storage or corruption error the candidates verified so far are
// returned (sorted by distance) alongside the non-nil error, so callers get
// a best-effort partial answer rather than silently losing objects.
//
// KNN is Query with Op OpKNN under context.Background(); use Query for the
// query's QueryStats, a deadline or a seed bound.
func (t *Tree) KNN(q metric.Object, k int) ([]Result, error) {
	return answers(t.Query(context.Background(), Query{Op: OpKNN, Q: q, K: k}))
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

	res := sc.res.reset(k, bound0)
	pq, blk := &sc.pq, &sc.blk
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
			// A buffered insert. A run of insert pops with no tree node
			// between them is verified as one block of up to knnRunBlock
			// (DESIGN.md §13) — identical results and counters to popping
			// one insert at a time.
			blk.cands = append(blk.cands[:0], pq.candidate(item))
			for len(blk.cands) < knnRunBlock && pq.Len() > 0 && !pq.peekIsNode() {
				blk.cands = append(blk.cands, pq.candidate(pq.pop()))
			}
			terminated, err := t.verifyKNNBlock(ctx, q, sc, qs, false)
			if err != nil {
				return res.sorted(), err
			}
			if terminated {
				break // Lemma 3 early termination mid-run
			}
			continue
		}
		if err := t.bpt.ReadNode(page.ID(item.ref), &sc.node); err != nil {
			return res.sorted(), err
		}
		qs.NodesRead++
		if !sc.node.Leaf {
			bound := res.bound()
			for _, c := range sc.node.Children {
				t.pushBox(sc, c, bound, qs)
			}
			continue
		}
		// Verify the whole leaf now, as one block: scan-time pruning
		// uses the pre-leaf bound, and the commit replays each survivor at its
		// own turn's bound — identical results and counters to a loop whose
		// bound tightens entry by entry. Both Lemma 3 tests run on the packed
		// cell words; no entry is unpacked.
		blk.cands = blk.cands[:0]
		bound := res.bound()
		for i, cell := range sc.node.Cells {
			if t.leafAdmits(sc, cell, bound) {
				blk.cands = append(blk.cands, candidate{val: sc.node.Vals[i], cell: cell})
			}
		}
		qs.EntriesScanned += int64(len(sc.node.Cells))
		qs.EntriesPruned += int64(len(sc.node.Cells) - len(blk.cands)) // Lemma 3
		if len(blk.cands) > 0 {
			if _, err := t.verifyKNNBlock(ctx, q, sc, qs, true); err != nil {
				return res.sorted(), err
			}
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

// knnRunBlock caps how many consecutive buffered-insert pops are verified as
// one block.
const knnRunBlock = 16

// verifyKNNBlock verifies sc.blk.cands — a leaf's admitted entries in scan
// order (leaf set), or a best-first run of consecutive buffered-insert pops
// (no tree node between them, so verifying them pushes nothing onto the
// frontier and the run is exactly the prefix a one-at-a-time loop would pop
// next). The ctx check gives verification-block granularity: a canceled
// query stops before the next RAF read and kernel call. The block is resolved against the bound
// before its first candidate; each candidate then commits at its own turn
// against the live bound, which only tightens:
//
//   - its MIND is re-checked first — for a leaf entry on its cell word,
//     against the window of the live bound (leafAdmits). In a leaf a
//     crossing is the Lemma 3 prune an entry-by-entry loop applies at that
//     entry's turn (EntriesPruned totals match); in a best-first run it ends
//     the query — a one-at-a-time loop would have broken there and never
//     popped the rest — which terminated reports.
//   - a leaf record resolveBlock could not read ends the query with its
//     error — at this turn, not before: a leaf that prunes the record never
//     read it.
//   - a base record superseded by the write buffer is skipped after its read:
//     it counts no verification.
//   - a completed distance is re-checked against the live bound: an excess is
//     the abandon a bounded evaluation at that bound would have reported. An
//     offer would reject such a candidate anyway (its distance ranks after
//     the heap top regardless of ID); a candidate at exactly curND_k still
//     completes (within ⇔ d ≤ bound), so the heap's ID tie-break sees it.
//
// Only committed verifications count Verified/Compdists and advance the
// lifetime distance counter, so every counter and the result set equal those
// of verifying one candidate at a time; the reads and evaluations of
// candidates a commit pruned stay invisible. The lifetime counter is advanced
// once per block, on return, by this call's own commits: the call that
// resumes the leaf after an unreadable record charges its commits itself.
func (t *Tree) verifyKNNBlock(ctx context.Context, q metric.Object, sc *queryScratch, qs *QueryStats, leaf bool) (terminated bool, err error) {
	if err := ctxDone(ctx); err != nil {
		return false, err
	}
	committed := int64(0)
	defer func() {
		if committed > 0 {
			t.dist.Add(committed)
		}
	}()
	res, b := &sc.res, &sc.blk
	resolved, probed, rerr := t.resolveBlock(sc, q, res.bound(), qs)
	qs.BatchedCandidates += int64(probed)
	for i, c := range b.cands {
		if leaf {
			if !t.leafAdmits(sc, c.cell, res.bound()) {
				qs.EntriesPruned++
				continue
			}
		} else if c.bound > res.bound() {
			return true, nil
		}
		if i == resolved {
			return false, rerr
		}
		if i > resolved {
			// The leaf scan pruned the unreadable record and goes on: the
			// rest of the leaf is a block of its own.
			b.cands = b.cands[:copy(b.cands, b.cands[i:])]
			return t.verifyKNNBlock(ctx, q, sc, qs, leaf)
		}
		if c.obj != nil {
			qs.DeltaCandidates++
		} else {
			t.raf.EmitRecordRead(c.val, b.plens[i])
			if b.tomb[i] {
				qs.TombstonesSkipped++
				continue
			}
		}
		qs.Verified++
		qs.Compdists++
		committed++
		if b.within[i] && b.d[i] <= res.bound() {
			res.offer(Result{Object: b.keep(i), Dist: b.d[i], Exact: true})
		} else if t.bounded {
			qs.Abandoned++
		}
	}
	return false, nil
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

// reset readies r, keeping its backing array, for a query seeded with bound0
// (+Inf for none; 0 is a valid, maximally tight bound; Query.Validate has
// already rejected NaN).
func (r *knnResults) reset(k int, bound0 float64) *knnResults {
	r.k, r.bound0, r.items = k, bound0, r.items[:0]
	return r
}

// resultWorse reports whether a ranks strictly after b in the (Dist, ID)
// total order. Using it as the heap priority makes the k-th boundary
// deterministic under distance ties: of two equal-distance candidates the
// smaller ID wins a slot, regardless of arrival order — so every visit order,
// of leaves or of shards, returns the same result set.
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
