package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"spbtree/internal/metric"
)

// ErrCanceled matches (errors.Is) every query abandoned because its context
// was canceled or its deadline expired. The answers verified before the
// cancellation are returned alongside the error — the same
// partial-results-plus-typed-error contract the durability layer uses for
// corrupt pages — so callers can distinguish "incomplete because interrupted"
// from "incomplete because broken". The context's own cause (e.g.
// context.DeadlineExceeded) is wrapped too and remains errors.Is-matchable.
var ErrCanceled = errors.New("core: query canceled")

// canceledErr wraps ctx's cancellation cause in ErrCanceled.
func canceledErr(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrCanceled, context.Cause(ctx))
}

// ctxDone reports a pending cancellation as a typed error, or nil. It is the
// cancellation check compiled into the query loops: for the default
// context.Background() of the non-Ctx entry points it is a single nil
// comparison, so uncancellable queries pay nothing measurable.
func ctxDone(ctx context.Context) error {
	if ctx.Err() != nil {
		return canceledErr(ctx)
	}
	return nil
}

// treeIDs hands out the process-unique Tree.id values used to order lock
// acquisition for two-tree joins.
var treeIDs atomic.Uint64

// rlockPair read-locks one or two trees in id order (deadlock-free against
// concurrent joins and Rebuilds touching the same pair) and returns the
// matching unlock.
func rlockPair(a, b *Tree) func() {
	if a == b {
		a.mu.RLock()
		return a.mu.RUnlock
	}
	if a.id > b.id {
		a, b = b, a
	}
	a.mu.RLock()
	b.mu.RLock()
	return func() { b.mu.RUnlock(); a.mu.RUnlock() }
}

// RangeSearchCtx answers RQ(q, O, r) like RangeQuery, honoring ctx:
// cancellation is checked at every node visit and every object verification,
// so an expired deadline stops page I/O and distance computations within one
// entry's work. On cancellation the answers verified so far are returned
// (sorted) with an error matching ErrCanceled.
func (t *Tree) RangeSearchCtx(ctx context.Context, q metric.Object, r float64) ([]Result, error) {
	qs := QueryStats{Op: OpRange}
	return t.runRange(ctx, q, r, &qs)
}

// RangeSearchWithStatsCtx is RangeSearchCtx plus the query's per-stage
// QueryStats (covering the work completed before any cancellation).
func (t *Tree) RangeSearchWithStatsCtx(ctx context.Context, q metric.Object, r float64) ([]Result, QueryStats, error) {
	qs := QueryStats{Op: OpRange, timed: true}
	res, err := t.runRange(ctx, q, r, &qs)
	return res, qs, err
}

// runRange executes one range query under the tree's read lock.
func (t *Tree) runRange(ctx context.Context, q metric.Object, r float64, qs *QueryStats) ([]Result, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return nil, ErrClosed
	}
	qt := t.beginQuery(qs)
	res, err := t.rangeQuery(ctx, q, r, qs)
	qt.finish(len(res), err)
	return res, err
}

// KNNCtx answers kNN(q, k) like KNN, honoring ctx with the same cancellation
// granularity as RangeSearchCtx. On cancellation the best candidates verified
// so far are returned (sorted by distance) with an error matching
// ErrCanceled — a usable approximate answer, not garbage.
func (t *Tree) KNNCtx(ctx context.Context, q metric.Object, k int) ([]Result, error) {
	qs := QueryStats{Op: OpKNN}
	return t.runKNN(ctx, q, k, math.Inf(1), 0, &qs)
}

// KNNWithStatsCtx is KNNCtx plus the query's per-stage QueryStats.
func (t *Tree) KNNWithStatsCtx(ctx context.Context, q metric.Object, k int) ([]Result, QueryStats, error) {
	qs := QueryStats{Op: OpKNN, timed: true}
	res, err := t.runKNN(ctx, q, k, math.Inf(1), 0, &qs)
	return res, qs, err
}

// runKNN executes one kNN query — seeded with bound, budgeted when maxVerify
// > 0 (see knn) — under the tree's read lock.
func (t *Tree) runKNN(ctx context.Context, q metric.Object, k int, bound float64, maxVerify int, qs *QueryStats) ([]Result, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return nil, ErrClosed
	}
	qt := t.beginQuery(qs)
	res, err := t.knn(ctx, q, k, bound, maxVerify, qs)
	qt.finish(len(res), err)
	return res, err
}

// KNNWithin answers kNN(q, k) restricted to objects within the given distance
// bound: the canonical top-k of {x : d(q, x) ≤ bound}, possibly fewer than k
// results. It is exactly KNN over the shard plus k phantom results at
// (bound, ∞), so a caller holding a k-th-distance bound from elsewhere — the
// forest's staged scatter visits its first shard to obtain one — prunes with
// it from the first heap pop instead of rediscovering it. bound = +Inf is
// plain KNN.
func (t *Tree) KNNWithin(q metric.Object, k int, bound float64) ([]Result, error) {
	return t.KNNWithinCtx(context.Background(), q, k, bound)
}

// KNNWithinCtx is KNNWithin honoring ctx, with KNNCtx's partial-result
// cancellation contract.
func (t *Tree) KNNWithinCtx(ctx context.Context, q metric.Object, k int, bound float64) ([]Result, error) {
	qs := QueryStats{Op: OpKNN}
	return t.runKNN(ctx, q, k, bound, 0, &qs)
}

// KNNWithinWithStatsCtx is KNNWithinCtx plus the query's per-stage QueryStats.
func (t *Tree) KNNWithinWithStatsCtx(ctx context.Context, q metric.Object, k int, bound float64) ([]Result, QueryStats, error) {
	qs := QueryStats{Op: OpKNN, timed: true}
	res, err := t.runKNN(ctx, q, k, bound, 0, &qs)
	return res, qs, err
}

// KNNApproxCtx answers budgeted approximate kNN like KNNApprox, honoring ctx.
// A budget of zero or less falls back to the exact KNNCtx.
func (t *Tree) KNNApproxCtx(ctx context.Context, q metric.Object, k, maxVerify int) ([]Result, error) {
	if maxVerify <= 0 {
		return t.KNNCtx(ctx, q, k)
	}
	qs := QueryStats{Op: OpKNNApprox}
	return t.runKNN(ctx, q, k, math.Inf(1), maxVerify, &qs)
}

// KNNApproxWithStatsCtx is KNNApproxCtx plus the query's per-stage
// QueryStats. A budget of zero or less falls back to KNNWithStatsCtx.
func (t *Tree) KNNApproxWithStatsCtx(ctx context.Context, q metric.Object, k, maxVerify int) ([]Result, QueryStats, error) {
	if maxVerify <= 0 {
		return t.KNNWithStatsCtx(ctx, q, k)
	}
	qs := QueryStats{Op: OpKNNApprox, timed: true}
	res, err := t.runKNN(ctx, q, k, math.Inf(1), maxVerify, &qs)
	return res, qs, err
}

// JoinCtx computes SJ(Q, O, ε) like Join, honoring ctx: cancellation is
// checked at every merge step and before every distance computation, and the
// pairs verified so far are returned with an error matching ErrCanceled.
func JoinCtx(ctx context.Context, tq, to *Tree, eps float64) ([]JoinPair, error) {
	qs := QueryStats{Op: OpJoin}
	return runJoin(ctx, tq, to, eps, &qs)
}

// JoinWithStatsCtx is JoinCtx plus the join's QueryStats (page accesses
// aggregate both trees' stores, once for a self-join).
func JoinWithStatsCtx(ctx context.Context, tq, to *Tree, eps float64) ([]JoinPair, QueryStats, error) {
	qs := QueryStats{Op: OpJoin, timed: true}
	pairs, err := runJoin(ctx, tq, to, eps, &qs)
	return pairs, qs, err
}

// runJoin executes one join under both trees' read locks (id-ordered).
func runJoin(ctx context.Context, tq, to *Tree, eps float64, qs *QueryStats) ([]JoinPair, error) {
	unlock := rlockPair(tq, to)
	defer unlock()
	if tq.closed || to.closed {
		return nil, ErrClosed
	}
	var beforeTo ioSnapshot
	if to != tq {
		beforeTo = to.takeIOSnapshot()
	}
	qt := tq.beginQuery(qs)
	pairs, err := joinImpl(ctx, tq, to, eps, qs)
	qt.finishJoin(to, beforeTo, len(pairs), err)
	return pairs, err
}
