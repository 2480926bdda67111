package metric

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Vector is a fixed-dimension real-valued object. It backs the Color
// (16-d, L5-norm) and Synthetic (20-d, L2-norm) workloads of the paper.
type Vector struct {
	Id     uint64
	Coords []float64
}

// NewVector returns a vector object with the given id and coordinates.
func NewVector(id uint64, coords []float64) *Vector {
	return &Vector{Id: id, Coords: coords}
}

// ID returns the object identifier.
func (v *Vector) ID() uint64 { return v.Id }

// AppendBinary appends the coordinates as little-endian float64 bits.
func (v *Vector) AppendBinary(dst []byte) []byte {
	for _, c := range v.Coords {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c))
	}
	return dst
}

// String implements fmt.Stringer.
func (v *Vector) String() string {
	return fmt.Sprintf("Vector(%d, dim=%d)", v.Id, len(v.Coords))
}

// VectorCodec decodes Vector payloads of a known dimensionality.
type VectorCodec struct {
	// Dim is the expected number of coordinates per vector.
	Dim int
}

// Decode implements Codec.
func (c VectorCodec) Decode(id uint64, data []byte) (Object, error) {
	return c.DecodeInto(nil, id, data)
}

// DecodeInto implements SlotCodec, reusing a *Vector slot and its coordinate
// array.
func (c VectorCodec) DecodeInto(slot Object, id uint64, data []byte) (Object, error) {
	if len(data) != 8*c.Dim {
		return nil, fmt.Errorf("metric: vector payload is %d bytes, want %d (dim %d)", len(data), 8*c.Dim, c.Dim)
	}
	v, ok := slot.(*Vector)
	if !ok {
		v = new(Vector)
	}
	if cap(v.Coords) < c.Dim {
		v.Coords = make([]float64, c.Dim)
	}
	v.Id, v.Coords = id, v.Coords[:c.Dim]
	for i := range v.Coords {
		v.Coords[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return v, nil
}

// LpNorm is the Minkowski distance of order P over vectors whose coordinates
// lie in [0, Scale]. P must be >= 1 for the triangle inequality to hold.
// The paper uses L5 for the Color dataset and L2 for the Synthetic dataset.
type LpNorm struct {
	// P is the Minkowski order (>= 1).
	P float64
	// Dim is the vector dimensionality, used to derive d+.
	Dim int
	// Scale is the per-coordinate domain width (coordinates in [0, Scale]).
	Scale float64
}

// L2 returns the Euclidean distance over dim-dimensional unit-cube vectors.
func L2(dim int) LpNorm { return LpNorm{P: 2, Dim: dim, Scale: 1} }

// L5 returns the Minkowski-5 distance over dim-dimensional unit-cube vectors.
func L5(dim int) LpNorm { return LpNorm{P: 5, Dim: dim, Scale: 1} }

// Distance implements DistanceFunc over *Vector and *Vector32 (never mixed
// within one space): it is DistanceAtMost at t = +∞, whose budget never
// abandons, so the exact and the bounded evaluation run one loop of
// kernels.go and agree bit for bit by construction. Integer orders (L5 for
// the Color workload) take the repeated-multiplication path: intPow is ~5×
// cheaper than math.Pow per coordinate — see BenchmarkDistanceL5 in
// bench_test.go.
func (l LpNorm) Distance(a, b Object) float64 {
	d, _ := l.DistanceAtMost(a, b, math.Inf(1))
	return d
}

// root applies the final p-th root to a powered sum.
func (l LpNorm) root(s float64) float64 {
	switch l.P {
	case 2:
		return math.Sqrt(s)
	case 1:
		return s
	default:
		return math.Pow(s, 1/l.P)
	}
}

// budget returns the powered abandon budget for threshold t: t^p, inflated by
// rootSafetyMargin when a final root will be applied (for L1 the sum is the
// distance, so the threshold is used as is). A non-integer order has no cheap
// power and no budget: its sum runs to the end.
func (l LpNorm) budget(t float64) float64 {
	switch l.P {
	case 1:
		return t
	case 2:
		return t * t * rootSafetyMargin
	}
	if p, ok := l.intP(); ok {
		return intPow(t, p) * rootSafetyMargin
	}
	return math.Inf(1)
}

// checkDims panics on mismatched vector dimensionalities.
func (l LpNorm) checkDims(na, nb int) {
	if na != nb {
		panic(fmt.Sprintf("metric: LpNorm on vectors of dim %d and %d", na, nb))
	}
}

// DistanceAtMost implements BoundedDistanceFunc. The p-th root is deferred:
// the partial sum of p-th-power coordinate deltas is compared against t^p
// (the sum of non-negative terms only grows, so partial > budget proves the
// final distance exceeds t), checked at every unroll-block boundary. A tiny
// relative safety margin on the budget absorbs the rounding of the final
// root, so a candidate whose rounded distance would land exactly on t is
// never abandoned — the within ⇔ d ≤ t contract holds bit-exactly. A
// completed evaluation ran the very loop Distance runs, so it returns
// Distance's value bit for bit.
func (l LpNorm) DistanceAtMost(a, b Object, t float64) (float64, bool) {
	if t < 0 {
		return 0, false
	}
	switch va := a.(type) {
	case *Vector:
		vb, ok := b.(*Vector)
		if !ok {
			panic(badType("LpNorm", "*Vector", b))
		}
		return l.atMost64(va.Coords, vb.Coords, t, l.budget(t))
	case *Vector32:
		vb, ok := b.(*Vector32)
		if !ok {
			panic(badType("LpNorm", "*Vector32", b))
		}
		return l.atMost32(va.Coords, vb.Coords, t, l.budget(t))
	}
	panic(badType("LpNorm", "*Vector or *Vector32", a))
}

// atMost64 is DistanceAtMost on two coordinate slices, for t ≥ 0 and
// budget = l.budget(t). Every Lp evaluation of float64 coordinates — exact,
// bounded and the prepared payload kernel's — ends here.
func (l LpNorm) atMost64(a, b []float64, t, budget float64) (float64, bool) {
	l.checkDims(len(a), len(b))
	s, within := l.powSum64AtMost(a, b, budget)
	if !within {
		return s, false
	}
	d := l.root(s)
	return d, d <= t
}

// atMost32 is atMost64 over float32 coordinates.
func (l LpNorm) atMost32(a, b []float32, t, budget float64) (float64, bool) {
	l.checkDims(len(a), len(b))
	s, within := l.powSum32AtMost(a, b, budget)
	if !within {
		return s, false
	}
	d := l.root(s)
	return d, d <= t
}

// powSum64AtMost returns the powered Lp sum Σ|aᵢ-bᵢ|^p (root not yet
// applied) under a powered budget. A non-integer order sums math.Pow terms
// to the end and reports within; its root decides.
func (l LpNorm) powSum64AtMost(a, b []float64, budget float64) (float64, bool) {
	switch {
	case l.P == 2:
		return l2Sum64AtMost(a, b, budget)
	case l.P == 1:
		return l1Sum64AtMost(a, b, budget)
	}
	if p, ok := l.intP(); ok {
		return lpSum64AtMost(a, b, p, budget)
	}
	var s float64
	for i := range a {
		s += math.Pow(math.Abs(a[i]-b[i]), l.P)
	}
	return s, true
}

// powSum32AtMost is powSum64AtMost over float32 coordinates (widened per
// element).
func (l LpNorm) powSum32AtMost(a, b []float32, budget float64) (float64, bool) {
	switch {
	case l.P == 2:
		return l2Sum32AtMost(a, b, budget)
	case l.P == 1:
		return l1Sum32AtMost(a, b, budget)
	}
	if p, ok := l.intP(); ok {
		return lpSum32AtMost(a, b, p, budget)
	}
	var s float64
	for i := range a {
		s += math.Pow(math.Abs(float64(a[i])-float64(b[i])), l.P)
	}
	return s, true
}

// rootSafetyMargin inflates the powered budget t^p by 1+1e-12 before the
// abandon comparison. The final root (Sqrt or Pow) rounds to ~1 ulp (~1e-16
// relative), so a partial sum within the margin of t^p could still round to
// a distance exactly equal to t; the margin — orders of magnitude wider than
// any rounding — lets such near-boundary candidates run to completion, where
// the rooted distance decides, instead of abandoning them.
const rootSafetyMargin = 1 + 1e-12

// intP reports l.P as a small positive integer exponent, if it is one.
func (l LpNorm) intP() (int, bool) {
	p := int(l.P)
	if float64(p) == l.P && p >= 1 && p <= 64 {
		return p, true
	}
	return 0, false
}

// intPow raises x to the non-negative integer power p by binary
// exponentiation — for L5, three multiplications instead of a math.Pow call.
// The first three bits of p are unrolled: for p ≤ 7 it is
// straight-line code whose branches all go one way for a given p, and it
// performs exactly the multiplications of the textbook loop, in its order —
// for p = 5, x·((x·x)·(x·x)) — so it returns the loop's value bit for bit
// (TestIntPowMatchesLoop). Written this way it stays small enough to inline
// into the kernels' per-coordinate lanes.
func intPow(x float64, p int) float64 {
	r := 1.0
	if p&1 != 0 {
		r *= x
	}
	x *= x
	if p&2 != 0 {
		r *= x
	}
	x *= x
	if p&4 != 0 {
		r *= x
	}
	for p >>= 3; p > 0; p >>= 1 {
		x *= x
		if p&1 != 0 {
			r *= x
		}
	}
	return r
}

// MaxDistance returns d+ = Scale * Dim^(1/P), the diameter of the cube.
func (l LpNorm) MaxDistance() float64 {
	return l.Scale * math.Pow(float64(l.Dim), 1/l.P)
}

// Discrete reports false: Lp distances are real-valued.
func (l LpNorm) Discrete() bool { return false }

// Name implements DistanceFunc.
func (l LpNorm) Name() string {
	if l.P == math.Trunc(l.P) {
		return fmt.Sprintf("L%d", int(l.P))
	}
	return fmt.Sprintf("L%g", l.P)
}

// LInf is the Chebyshev (L∞) distance over vectors. It is the distance D(·)
// of the mapped pivot space (Section 3.1 of the paper) and is also available
// as a plain metric.
type LInf struct {
	// Dim is the vector dimensionality.
	Dim int
	// Scale is the per-coordinate domain width.
	Scale float64
}

// Distance implements DistanceFunc over *Vector and *Vector32: it is
// DistanceAtMost at t = +∞, through the unrolled max-abs loops of kernels.go
// (max is order-invariant, so the lane split cannot change the result).
func (l LInf) Distance(a, b Object) float64 {
	d, _ := l.DistanceAtMost(a, b, math.Inf(1))
	return d
}

// DistanceAtMost implements BoundedDistanceFunc: the running maximum only
// grows, so the first unroll block whose maximum exceeds t proves the
// distance does too and the scan stops.
func (l LInf) DistanceAtMost(a, b Object, t float64) (float64, bool) {
	switch va := a.(type) {
	case *Vector:
		vb, ok := b.(*Vector)
		if !ok {
			panic(badType("LInf", "*Vector", b))
		}
		return maxAbs64AtMost(va.Coords, vb.Coords, t)
	case *Vector32:
		vb, ok := b.(*Vector32)
		if !ok {
			panic(badType("LInf", "*Vector32", b))
		}
		return maxAbs32AtMost(va.Coords, vb.Coords, t)
	}
	panic(badType("LInf", "*Vector or *Vector32", a))
}

// MaxDistance returns the cube's L∞ diameter, Scale.
func (l LInf) MaxDistance() float64 { return l.Scale }

// Discrete reports false.
func (l LInf) Discrete() bool { return false }

// Name implements DistanceFunc.
func (l LInf) Name() string { return "Linf" }

var (
	_ DistanceFunc        = LpNorm{}
	_ BoundedDistanceFunc = LpNorm{}
	_ DistanceFunc        = LInf{}
	_ BoundedDistanceFunc = LInf{}
	_ SlotCodec           = VectorCodec{}
)
