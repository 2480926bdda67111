package metric

// BoundedDistanceFunc is an optional extension of DistanceFunc for
// threshold-aware distance evaluation. Every verification site in the query
// algorithms holds a live bound when it computes a distance — the range
// radius r, the join threshold ε, or the kNN pruning bound curND_k — and a
// bounded kernel can exploit it: once the partial computation proves
// d(a, b) > t, the evaluation may stop early ("abandon") instead of finishing
// the exact value.
//
// The contract makes abandonment invisible to query semantics:
//
//   - within == true  ⇔ d(a, b) ≤ t, and then d is exactly the value
//     Distance(a, b) would have returned — bit-identical, so result sets and
//     reported distances do not change.
//   - within == false ⇒ d(a, b) > t. The returned d is then unspecified
//     (kernels return whatever partial evidence proved the violation) and
//     callers must not use it.
//
// The equivalence "within ⇔ d ≤ t" must hold exactly, including at d == t:
// the kNN result heap breaks distance ties by object ID, so a kernel that
// abandoned a candidate with d == t would silently drop a tie-breaking
// answer. Kernels therefore only abandon on strict proof of d > t.
//
// An abandoned evaluation still counts as one distance computation in the
// paper's compdists metric (see Counter.DistanceAtMost): the cost model
// charges evaluations, and making abandoned ones free would break the
// serial/parallel and exact/bounded accounting equivalences the engine
// guarantees. The savings show up in wall time, not in compdists.
type BoundedDistanceFunc interface {
	DistanceFunc
	// DistanceAtMost evaluates d(a, b) against the threshold t. See the
	// interface comment for the (d, within) contract. Any t is allowed:
	// t = +Inf degenerates to an exact evaluation, t < 0 always reports
	// within == false (metric distances are non-negative).
	DistanceAtMost(a, b Object, t float64) (d float64, within bool)
}

// DistanceAtMost evaluates fn's distance against threshold t, using the
// bounded kernel when fn implements BoundedDistanceFunc and an exact
// evaluation otherwise. The fallback preserves the contract exactly (within
// ⇔ d ≤ t, d exact when within), so callers can treat every DistanceFunc as
// bounded; only the early-abandon savings require a real kernel.
func DistanceAtMost(fn DistanceFunc, a, b Object, t float64) (float64, bool) {
	if bf, ok := fn.(BoundedDistanceFunc); ok {
		return bf.DistanceAtMost(a, b, t)
	}
	d := fn.Distance(a, b)
	return d, d <= t
}

// BatchDistanceAtMost is harness-kept: a plain loop writing
// DistanceAtMost(fn, q, objs[i], t) into (d[i], within[i]), with no kernel
// of its own; len(d) and len(within) must equal len(objs). It exists only
// because the frozen benchmark harness (bench/) still calls it for its
// kernel.batch rung, and it goes with that rung in the harness's next
// revision. No other code calls it: the query path evaluates stored
// candidates through a PreparedQuery.
func BatchDistanceAtMost(fn DistanceFunc, q Object, objs []Object, t float64, d []float64, within []bool) {
	for i, o := range objs {
		d[i], within[i] = DistanceAtMost(fn, q, o, t)
	}
}

// IsBounded reports whether fn has a threshold-aware kernel (implements
// BoundedDistanceFunc), unwrapping a Counter if needed. Callers use it to
// decide whether abandoned-evaluation accounting applies.
func IsBounded(fn DistanceFunc) bool {
	if c, ok := fn.(*Counter); ok {
		fn = c.Unwrap()
	}
	_, ok := fn.(BoundedDistanceFunc)
	return ok
}
