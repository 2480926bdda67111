package core

import (
	"context"

	"spbtree/internal/metric"
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
