package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"spbtree/internal/metric"
)

// Query is one search request — which operation, on which object, with which
// parameters — as a value. Every layer a request crosses (the HTTP handler,
// the cluster router, a node, the forest, a tree) takes it through one entry
// point, Query(ctx, Query), so a new parameter is one new field here rather
// than a new method on each layer. The zero value of every optional field
// means "off": a Query{Op: OpKNN, Q: q, K: k} is the paper's plain kNN(q, k).
//
//	field      OpRange  OpKNN  OpKNNApprox  OpKNNGraph
//	Q          yes      yes    yes          yes
//	Radius     yes      -      -            -
//	K          -        yes    yes          yes
//	Bounded    -        opt    -            -
//	MaxVerify  -        -      opt          -
//	Search     -        -      -            opt
//	Timed      opt      opt    opt          opt
type Query struct {
	// Op selects the operation: OpRange (Algorithm 1), OpKNN (Algorithm 2),
	// OpKNNApprox (Algorithm 2 under a verification budget) or OpKNNGraph
	// (beam search over the graph tier, DESIGN.md §14; ErrNoGraph when the
	// tree has none).
	Op string
	// Q is the query object.
	Q metric.Object
	// Radius is the range-query radius; a negative radius answers empty.
	Radius float64
	// K is the neighbor count of the kNN operations; K ≤ 0 answers empty.
	K int
	// Bounded restricts OpKNN to objects within Bound of Q: the answer is the
	// canonical top-K of {x : d(Q, x) ≤ Bound}, possibly fewer than K results
	// — exactly kNN over the tree plus K phantom results at (Bound, ∞). A
	// caller holding a k-th-distance bound from elsewhere (stage 2 of the
	// forest's staged scatter, DESIGN.md §15.2) prunes with it from the first
	// heap pop instead of rediscovering it. The presence bit is separate from
	// the value because 0 is a legal, maximally tight bound.
	Bounded bool
	Bound   float64
	// MaxVerify is OpKNNApprox's budget: the best-first traversal stops after
	// verifying this many objects. Candidates are visited in ascending
	// mapped-space MIND order, so recall degrades gracefully as the budget
	// shrinks. Zero or less runs (and reports as) the exact OpKNN.
	MaxVerify int
	// Search tunes OpKNNGraph's beam search.
	Search SearchOptions
	// Timed turns on the per-stage wall clocks of the returned QueryStats
	// (PlanTime, VerifyTime, FilterTime) — a time.Now per verified block that
	// plain queries skip. Counters and Elapsed are filled either way.
	Timed bool
}

// ErrInvalidQuery matches (errors.Is) every request Query.Validate rejects,
// and a join whose trees do not share one Z-order mapped space.
var ErrInvalidQuery = errors.New("core: invalid query")

// Validate checks the request's invariants — the one place they live, called
// by every Query entry point and by the layers that accept requests from
// outside the process. It rejects an unknown Op, a NaN radius or bound, and a
// parameter set on an operation that does not take it (a bound outside
// OpKNN, a verification budget outside OpKNNApprox, search options outside
// OpKNNGraph). K ≤ 0 and a negative radius are legal and answer empty.
func (q Query) Validate() error {
	switch q.Op {
	case OpRange, OpKNN, OpKNNApprox, OpKNNGraph:
	default:
		return fmt.Errorf("%w: unknown operation %q", ErrInvalidQuery, q.Op)
	}
	switch {
	case math.IsNaN(q.Radius):
		return fmt.Errorf("%w: radius is NaN", ErrInvalidQuery)
	case q.Bounded && math.IsNaN(q.Bound):
		return fmt.Errorf("%w: bound is NaN", ErrInvalidQuery)
	case q.Bounded && q.Op != OpKNN:
		return fmt.Errorf("%w: a distance bound applies only to %s, not %s", ErrInvalidQuery, OpKNN, q.Op)
	case q.MaxVerify != 0 && q.Op != OpKNNApprox:
		return fmt.Errorf("%w: a verification budget applies only to %s, not %s", ErrInvalidQuery, OpKNNApprox, q.Op)
	case q.Search != (SearchOptions{}) && q.Op != OpKNNGraph:
		return fmt.Errorf("%w: search options apply only to %s, not %s", ErrInvalidQuery, OpKNNGraph, q.Op)
	}
	return nil
}

// Exact returns the exact kNN request a graph query degrades to where there
// is no live graph (ErrNoGraph): the same object, K and clocks under OpKNN.
func (q Query) Exact() Query {
	q.Op, q.Search = OpKNN, SearchOptions{}
	return q
}

// Query answers one search request under the tree's read lock and returns
// the query's QueryStats beside the results. ctx is checked at every node
// visit, heap pop, graph hop and object verification, so an expired deadline
// stops page I/O and distance computations within one entry's work; on
// cancellation, and on a storage or corruption error, the answers verified so
// far come back (sorted) with the error — matching ErrCanceled in the first
// case — and the stats cover the work completed.
func (t *Tree) Query(ctx context.Context, q Query) ([]Result, QueryStats, error) {
	qs := QueryStats{Op: q.Op, timed: q.Timed}
	if err := q.Validate(); err != nil {
		return nil, qs, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return nil, qs, ErrClosed
	}
	var res []Result
	var err error
	qt := t.beginQuery(&qs)
	switch q.Op {
	case OpRange:
		res, err = t.rangeQuery(ctx, q.Q, q.Radius, &qs)
	case OpKNNGraph:
		res, err = t.knnGraph(ctx, q.Q, q.K, q.Search, &qs)
	default:
		bound, budget := math.Inf(1), 0
		if q.Bounded {
			bound = q.Bound
		}
		if q.MaxVerify > 0 {
			budget = q.MaxVerify
		} else {
			qs.Op = OpKNN // an approximate request without a budget is the exact search
		}
		res, err = t.knn(ctx, q.Q, q.K, bound, budget, &qs)
	}
	qt.finish(len(res), err)
	return res, qs, err
}

// MergeResults is the gather-side reduction of a scatter-gather query: it
// merges per-branch answers of op into the canonical order of the whole —
// ascending ID for OpRange, the first k under the total (dist, ID) order for
// the kNN operations. Because both orders are total, the reduction is
// associative: merging per shard, then per node, then per cluster yields
// exactly the merge of all shards at once, which is what makes node-local
// pre-merging safe (DESIGN.md §12.3).
func MergeResults(op string, k int, per [][]Result) []Result {
	var all []Result
	for _, res := range per {
		all = append(all, res...)
	}
	if op == OpRange {
		sort.Slice(all, func(i, j int) bool { return all[i].Object.ID() < all[j].Object.ID() })
		return all
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].Object.ID() < all[j].Object.ID()
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// answers drops the stats of a Query call, for the conveniences below.
func answers(res []Result, _ QueryStats, err error) ([]Result, error) { return res, err }

// The six methods below are kept only because the frozen benchmark harness
// (bench/) calls them by name; each is one call into Query, nothing else in
// the repository may use them, and they go with the harness's next revision.

// KNNCtx is harness-kept: Query with Op OpKNN.
func (t *Tree) KNNCtx(ctx context.Context, q metric.Object, k int) ([]Result, error) {
	return answers(t.Query(ctx, Query{Op: OpKNN, Q: q, K: k}))
}

// KNNWithStatsCtx is harness-kept: Query with Op OpKNN, Timed.
func (t *Tree) KNNWithStatsCtx(ctx context.Context, q metric.Object, k int) ([]Result, QueryStats, error) {
	return t.Query(ctx, Query{Op: OpKNN, Q: q, K: k, Timed: true})
}

// RangeSearchCtx is harness-kept: Query with Op OpRange.
func (t *Tree) RangeSearchCtx(ctx context.Context, q metric.Object, r float64) ([]Result, error) {
	return answers(t.Query(ctx, Query{Op: OpRange, Q: q, Radius: r}))
}

// RangeSearchWithStatsCtx is harness-kept: Query with Op OpRange, Timed.
func (t *Tree) RangeSearchWithStatsCtx(ctx context.Context, q metric.Object, r float64) ([]Result, QueryStats, error) {
	return t.Query(ctx, Query{Op: OpRange, Q: q, Radius: r, Timed: true})
}

// KNNGraphCtx is harness-kept: Query with Op OpKNNGraph.
func (t *Tree) KNNGraphCtx(ctx context.Context, q metric.Object, k int, opts SearchOptions) ([]Result, error) {
	return answers(t.Query(ctx, Query{Op: OpKNNGraph, Q: q, K: k, Search: opts}))
}

// KNNGraphWithStatsCtx is harness-kept: Query with Op OpKNNGraph, Timed.
func (t *Tree) KNNGraphWithStatsCtx(ctx context.Context, q metric.Object, k int, opts SearchOptions) ([]Result, QueryStats, error) {
	return t.Query(ctx, Query{Op: OpKNNGraph, Q: q, K: k, Search: opts, Timed: true})
}
