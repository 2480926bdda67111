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
// cancellation check compiled into the query loops: for context.Background()
// it is a single nil comparison, so uncancellable queries pay nothing
// measurable.
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
