package core

import (
	"context"
	"math"

	"spbtree/internal/metric"
	"spbtree/internal/page"
)

// KNNApprox answers kNN(q, k) approximately: the best-first traversal of
// Algorithm 2 runs unchanged but stops after verifying at most maxVerify
// objects. Because candidates are visited in ascending mapped-space MIND
// order — the lower bound whose tightness is the pivot set's precision
// (Definition 1) — the first verified objects are exactly the most promising
// ones, so recall degrades gracefully as the budget shrinks. A budget of
// zero or less falls back to the exact search.
//
// This is the approximate-search mode metric indexes such as the M-Index
// expose, and a natural extension of the paper's framework: the same
// structure serves exact and budgeted queries.
//
// Use KNNApproxWithStats to additionally observe the query's per-stage
// QueryStats, and KNNApproxCtx for deadline- and cancellation-aware
// execution.
func (t *Tree) KNNApprox(q metric.Object, k, maxVerify int) ([]Result, error) {
	return t.KNNApproxCtx(context.Background(), q, k, maxVerify)
}

// knnApprox is the budgeted best-first traversal, accumulating per-stage
// counts into qs. ctx is checked at every heap pop and every verification; on
// cancellation (or any storage error) the candidates verified so far are
// returned with the error, mirroring knn's partial-result contract.
func (t *Tree) knnApprox(ctx context.Context, q metric.Object, k, maxVerify int, qs *QueryStats) ([]Result, error) {
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
	if slots := t.workersFor(); slots > 0 {
		// The ordered-commit engine enforces the budget at commit time, so
		// the verified set is exactly the serial prefix (exec.go).
		return t.knnParallel(ctx, q, sc, k, math.Inf(1), qs, slots, int64(maxVerify))
	}

	res := sc.res.reset(k, math.Inf(1))
	pq := &sc.pq
	if rootOK {
		t.pushBox(sc, root, res.bound(), qs)
	}
	if t.deltaActive() {
		t.seedDelta(sc, qs)
	}

	verified := 0
	for pq.Len() > 0 && verified < maxVerify {
		if err := ctxDone(ctx); err != nil {
			return res.sorted(), err
		}
		item := pq.pop()
		if item.mind > res.bound() {
			break
		}
		if !item.isNode() {
			// A tombstone-shadowed base record verifies nothing and spends no
			// budget; the serial and parallel budgeted searches agree on that.
			counted, err := t.verifyKNN(ctx, q, res, pq.cand(item), qs)
			if err != nil {
				return res.sorted(), err
			}
			if counted {
				verified++
			}
			continue
		}
		if err := t.readNode(sc, page.ID(item.ref)); err != nil {
			return res.sorted(), err
		}
		qs.NodesRead++
		t.pushNode(sc, res.bound(), qs)
	}
	out := res.sorted()
	qs.Discarded = qs.Verified - int64(len(out))
	return out, nil
}
