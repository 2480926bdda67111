// Package metric defines the metric-space abstraction used throughout the
// SPB-tree library: objects, distance functions, distance-computation
// accounting, and dataset statistics such as intrinsic dimensionality.
//
// A metric space is a pair (M, d) where d is symmetric, non-negative,
// satisfies the identity of indiscernibles, and — crucially for all pruning
// lemmas in the index — the triangle inequality. Every DistanceFunc in this
// package is a true metric; see the package tests, which verify the triangle
// inequality property-based.
package metric

import (
	"fmt"
	"sync/atomic"
)

// Object is an element of a metric space. Objects carry a stable identifier
// (used in query results and RAF records) and can serialize their payload for
// storage in the random access file. The identifier itself is stored by the
// RAF record header, not by AppendBinary.
type Object interface {
	// ID returns the object's stable identifier.
	ID() uint64
	// AppendBinary appends the object's payload encoding to dst and returns
	// the extended slice.
	AppendBinary(dst []byte) []byte
}

// DistanceFunc computes distances between objects of a metric space.
// Implementations must satisfy the four metric postulates (symmetry,
// non-negativity, identity, triangle inequality).
type DistanceFunc interface {
	// Distance returns d(a, b). It panics if a or b has a concrete type the
	// function does not understand, which always indicates a programming
	// error (mixing objects from different spaces).
	Distance(a, b Object) float64
	// MaxDistance returns d+, the maximum possible distance in the space.
	// It is used to express query radii as percentages of d+ and to quantize
	// distances into SFC cells.
	MaxDistance() float64
	// Discrete reports whether the distance range is a set of integers
	// (e.g. edit or Hamming distance). Discrete spaces are indexed with
	// δ = 1, making cell coordinates exact distances.
	Discrete() bool
	// Name returns a short human-readable name, e.g. "L2" or "edit".
	Name() string
}

// Codec decodes objects previously serialized with Object.AppendBinary.
// Each object kind has a matching codec so the RAF can reconstruct payloads.
type Codec interface {
	// Decode reconstructs an object with the given id from its payload bytes.
	// Implementations must not retain data: the RAF passes a slice of a
	// pinned cache frame, which the next page miss may overwrite.
	Decode(id uint64, data []byte) (Object, error)
}

// SlotCodec is an optional Codec capability: decoding over an object the
// caller has finished with instead of allocating a new one. The exact read
// path verifies some hundred candidates per result it returns, so it decodes
// each into a reused slot, evaluates it, and keeps the object only when it is
// an answer.
type SlotCodec interface {
	Codec
	// DecodeInto is Decode that may overwrite slot — a value an earlier
	// Decode or DecodeInto of this codec returned, which nobody reads any
	// more — and return it. A nil slot, or one of another kind, decodes into
	// a new object. On error slot's contents are unspecified.
	DecodeInto(slot Object, id uint64, data []byte) (Object, error)
}

// DecodeInto decodes with c into slot when c is a SlotCodec and slot is
// non-nil, and is c.Decode otherwise.
func DecodeInto(c Codec, slot Object, id uint64, data []byte) (Object, error) {
	if sc, ok := c.(SlotCodec); ok && slot != nil {
		return sc.DecodeInto(slot, id, data)
	}
	return c.Decode(id, data)
}

// Counter wraps a DistanceFunc and counts invocations. The count is the
// paper's "compdists" metric — the CPU-cost proxy used throughout the
// evaluation. Counter is safe for concurrent use.
type Counter struct {
	fn DistanceFunc
	n  atomic.Int64
}

// NewCounter returns a counting wrapper around fn.
func NewCounter(fn DistanceFunc) *Counter {
	if fn == nil {
		panic("metric: NewCounter called with nil DistanceFunc")
	}
	return &Counter{fn: fn}
}

// Distance computes d(a, b) and increments the counter.
func (c *Counter) Distance(a, b Object) float64 {
	c.n.Add(1)
	return c.fn.Distance(a, b)
}

// MaxDistance returns the wrapped function's d+.
func (c *Counter) MaxDistance() float64 { return c.fn.MaxDistance() }

// Discrete reports whether the wrapped function is integer-valued.
func (c *Counter) Discrete() bool { return c.fn.Discrete() }

// Name returns the wrapped function's name.
func (c *Counter) Name() string { return c.fn.Name() }

// DistanceAtMost evaluates d(a, b) against threshold t (see
// BoundedDistanceFunc) and increments the counter by exactly one — an
// abandoned evaluation still counts as one compdist, because the paper's
// cost model charges distance evaluations, not the fraction of one that
// completed. Early abandoning therefore changes wall time, never Compdists.
func (c *Counter) DistanceAtMost(a, b Object, t float64) (float64, bool) {
	c.n.Add(1)
	return DistanceAtMost(c.fn, a, b, t)
}

// Count returns the number of distance computations since the last Reset.
func (c *Counter) Count() int64 { return c.n.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n.Store(0) }

// Add folds n distance computations performed outside the wrapper into the
// count. Block verification uses it: a block of candidates is evaluated with
// Unwrap (uncounted, since a kNN bound that tightened in the meantime may
// discard some of them), and the commit step adds exactly the computations
// verifying the candidates one at a time would have performed, keeping the
// lifetime counter reconcilable with per-query Compdists.
func (c *Counter) Add(n int64) { c.n.Add(n) }

// Unwrap returns the underlying DistanceFunc.
func (c *Counter) Unwrap() DistanceFunc { return c.fn }

var (
	_ DistanceFunc        = (*Counter)(nil)
	_ BoundedDistanceFunc = (*Counter)(nil)
)

func badType(fn, want string, got Object) string {
	return fmt.Sprintf("metric: %s applied to %T, want %s", fn, got, want)
}
