package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
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
