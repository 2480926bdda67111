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
// within one space), through the unrolled inner loops of kernels.go. Integer
// orders (L5 for the Color workload) take the repeated-multiplication path:
// intPow is ~5× cheaper than math.Pow per coordinate — see
// BenchmarkDistanceL5 in bench_test.go.
func (l LpNorm) Distance(a, b Object) float64 {
	switch va := a.(type) {
	case *Vector:
		vb, ok := b.(*Vector)
		if !ok {
			panic(badType("LpNorm", "*Vector", b))
		}
		l.checkDims(len(va.Coords), len(vb.Coords))
		return l.root(l.powSum64(va.Coords, vb.Coords))
	case *Vector32:
		vb, ok := b.(*Vector32)
		if !ok {
			panic(badType("LpNorm", "*Vector32", b))
		}
		l.checkDims(len(va.Coords), len(vb.Coords))
		return l.root(l.powSum32(va.Coords, vb.Coords))
	}
	panic(badType("LpNorm", "*Vector or *Vector32", a))
}

// powSum64 returns the powered Lp sum Σ|aᵢ-bᵢ|^p (root not yet applied).
func (l LpNorm) powSum64(a, b []float64) float64 {
	switch {
	case l.P == 2:
		return l2Sum64(a, b)
	case l.P == 1:
		return l1Sum64(a, b)
	default:
		if p, ok := l.intP(); ok {
			return lpSum64(a, b, p)
		}
		var s float64
		for i := range a {
			s += math.Pow(math.Abs(a[i]-b[i]), l.P)
		}
		return s
	}
}

// powSum32 is powSum64 over float32 coordinates (widened per element).
func (l LpNorm) powSum32(a, b []float32) float64 {
	switch {
	case l.P == 2:
		return l2Sum32(a, b)
	case l.P == 1:
		return l1Sum32(a, b)
	default:
		if p, ok := l.intP(); ok {
			return lpSum32(a, b, p)
		}
		var s float64
		for i := range a {
			s += math.Pow(math.Abs(float64(a[i])-float64(b[i])), l.P)
		}
		return s
	}
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
// distance, so the threshold is used as is).
func (l LpNorm) budget(t float64) float64 {
	switch l.P {
	case 1:
		return t
	case 2:
		return t * t * rootSafetyMargin
	default:
		p, _ := l.intP()
		return intPow(t, p) * rootSafetyMargin
	}
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
// never abandoned — the within ⇔ d ≤ t contract holds bit-exactly. The
// kernels share their accumulator layout with the exact path (kernels.go), so
// a completed bounded evaluation returns Distance's value bit for bit.
func (l LpNorm) DistanceAtMost(a, b Object, t float64) (float64, bool) {
	if t < 0 {
		return 0, false
	}
	if _, ok := l.intP(); !ok {
		// Non-integer order: no cheap power, evaluate exactly.
		d := l.Distance(a, b)
		return d, d <= t
	}
	budget := l.budget(t)
	switch va := a.(type) {
	case *Vector:
		vb, ok := b.(*Vector)
		if !ok {
			panic(badType("LpNorm", "*Vector", b))
		}
		l.checkDims(len(va.Coords), len(vb.Coords))
		s, within := l.powSum64AtMost(va.Coords, vb.Coords, budget)
		if !within {
			return s, false
		}
		d := l.root(s)
		return d, d <= t
	case *Vector32:
		vb, ok := b.(*Vector32)
		if !ok {
			panic(badType("LpNorm", "*Vector32", b))
		}
		l.checkDims(len(va.Coords), len(vb.Coords))
		s, within := l.powSum32AtMost(va.Coords, vb.Coords, budget)
		if !within {
			return s, false
		}
		d := l.root(s)
		return d, d <= t
	}
	panic(badType("LpNorm", "*Vector or *Vector32", a))
}

// powSum64AtMost is powSum64 under a powered budget; l.P must be integer.
func (l LpNorm) powSum64AtMost(a, b []float64, budget float64) (float64, bool) {
	switch {
	case l.P == 2:
		return l2Sum64AtMost(a, b, budget)
	case l.P == 1:
		return l1Sum64AtMost(a, b, budget)
	default:
		p, _ := l.intP()
		return lpSum64AtMost(a, b, p, budget)
	}
}

// powSum32AtMost is powSum32 under a powered budget; l.P must be integer.
func (l LpNorm) powSum32AtMost(a, b []float32, budget float64) (float64, bool) {
	switch {
	case l.P == 2:
		return l2Sum32AtMost(a, b, budget)
	case l.P == 1:
		return l1Sum32AtMost(a, b, budget)
	default:
		p, _ := l.intP()
		return lpSum32AtMost(a, b, p, budget)
	}
}

// rootSafetyMargin inflates the powered budget t^p by 1+1e-12 before the
// abandon comparison. The final root (Sqrt or Pow) rounds to ~1 ulp (~1e-16
// relative), so a partial sum within the margin of t^p could still round to
// a distance exactly equal to t; the margin — orders of magnitude wider than
// any rounding — forces such near-boundary candidates down the exact path
// instead of abandoning them.
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
// Both the exact and bounded Lp paths use it, so their per-coordinate terms
// are bit-identical.
func intPow(x float64, p int) float64 {
	r := 1.0
	for p > 0 {
		if p&1 == 1 {
			r *= x
		}
		x *= x
		p >>= 1
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

// Distance implements DistanceFunc over *Vector and *Vector32, through the
// unrolled max-abs loops of kernels.go (max is order-invariant, so the lane
// split cannot change the result).
func (l LInf) Distance(a, b Object) float64 {
	switch va := a.(type) {
	case *Vector:
		vb, ok := b.(*Vector)
		if !ok {
			panic(badType("LInf", "*Vector", b))
		}
		return maxAbs64(va.Coords, vb.Coords)
	case *Vector32:
		vb, ok := b.(*Vector32)
		if !ok {
			panic(badType("LInf", "*Vector32", b))
		}
		return maxAbs32(va.Coords, vb.Coords)
	}
	panic(badType("LInf", "*Vector or *Vector32", a))
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
