package metric

import (
	"math"
	"math/rand"
	"testing"
)

// tailDims covers every alignment of the unrolled loops: empty, pure-tail
// (< one lane group), exactly one group, group±1, and the two-group
// boundaries of both the 4-wide float64 and 8-wide float32 kernels.
var tailDims = []int{0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17}

func randPair64(dim int, seed int64) (a, b []float64) {
	rng := rand.New(rand.NewSource(seed))
	a = make([]float64, dim)
	b = make([]float64, dim)
	for i := 0; i < dim; i++ {
		a[i] = rng.Float64()
		b[i] = rng.Float64()
	}
	return a, b
}

func toF32(x []float64) []float32 {
	out := make([]float32, len(x))
	for i, v := range x {
		out[i] = float32(v)
	}
	return out
}

func relClose(got, want float64) bool {
	if got == want {
		return true
	}
	scale := math.Max(math.Abs(want), 1)
	return math.Abs(got-want) <= 1e-9*scale
}

// TestKernelTailPaths checks every unrolled kernel against a naive
// index-order reference at dimensions that hit each remainder path, the
// bounded loops at an infinite budget, which is how Distance runs them. The
// unrolled kernels use a fixed pairwise lane reduction, so the comparison is
// tolerance-based for sums and exact for max-reductions (order-insensitive).
func TestKernelTailPaths(t *testing.T) {
	inf := math.Inf(1)
	for _, dim := range tailDims {
		a, b := randPair64(dim, int64(100+dim))
		a32, b32 := toF32(a), toF32(b)

		// Naive references in plain index order.
		var l2, l1, l5, dot, linf float64
		for i := 0; i < dim; i++ {
			d := a[i] - b[i]
			l2 += d * d
			ad := math.Abs(d)
			l1 += ad
			l5 += ad * ad * ad * ad * ad
			dot += a[i] * b[i]
			if ad > linf {
				linf = ad
			}
		}
		var l2f, l1f, l5f, dotf, linff float64
		for i := 0; i < dim; i++ {
			d := float64(a32[i]) - float64(b32[i])
			l2f += d * d
			ad := math.Abs(d)
			l1f += ad
			l5f += ad * ad * ad * ad * ad
			dotf += float64(a32[i]) * float64(b32[i])
			if ad > linff {
				linff = ad
			}
		}

		check := func(name string, got, want float64, exact bool) {
			t.Helper()
			if exact && got != want {
				t.Errorf("dim %d: %s = %v, want exactly %v", dim, name, got, want)
			} else if !relClose(got, want) {
				t.Errorf("dim %d: %s = %v, naive reference %v", dim, name, got, want)
			}
		}
		// full is a bounded loop's sum at an infinite budget, which it must
		// never abandon.
		full := func(name string) func(float64, bool) float64 {
			return func(s float64, within bool) float64 {
				if !within {
					t.Errorf("dim %d: %s abandoned at an infinite budget", dim, name)
				}
				return s
			}
		}
		check("l2Sum64AtMost", full("l2Sum64AtMost")(l2Sum64AtMost(a, b, inf)), l2, false)
		check("l1Sum64AtMost", full("l1Sum64AtMost")(l1Sum64AtMost(a, b, inf)), l1, false)
		check("lpSum64AtMost(5)", full("lpSum64AtMost(5)")(lpSum64AtMost(a, b, 5, inf)), l5, false)
		check("dot64", dot64(a, b), dot, false)
		check("maxAbs64AtMost", full("maxAbs64AtMost")(maxAbs64AtMost(a, b, inf)), linf, true)
		check("l2Sum32AtMost", full("l2Sum32AtMost")(l2Sum32AtMost(a32, b32, inf)), l2f, false)
		check("l1Sum32AtMost", full("l1Sum32AtMost")(l1Sum32AtMost(a32, b32, inf)), l1f, false)
		check("lpSum32AtMost(5)", full("lpSum32AtMost(5)")(lpSum32AtMost(a32, b32, 5, inf)), l5f, false)
		check("dot32", dot32(a32, b32), dotf, false)
		check("maxAbs32AtMost", full("maxAbs32AtMost")(maxAbs32AtMost(a32, b32, inf)), linff, true)
	}
}

// TestKernelAtMostBitIdentity is the bounded-kernel contract at the raw
// kernel layer (DESIGN.md §10, §13): a run under a finite budget at or above
// the value — exactly at it, one ulp above, twice it — completes and returns
// the bits of the run under an infinite budget, the one Distance makes, at
// every tail alignment, because the abandon test folds the lane accumulators
// without disturbing them. A budget strictly below the value reports
// within=false.
func TestKernelAtMostBitIdentity(t *testing.T) {
	for _, dim := range tailDims {
		a, b := randPair64(dim, int64(200+dim))
		a32, b32 := toF32(a), toF32(b)
		inf := math.Inf(1)

		kernels := []struct {
			name string
			at   func(budget float64) (float64, bool)
		}{
			{"l2Sum64AtMost", func(t float64) (float64, bool) { return l2Sum64AtMost(a, b, t) }},
			{"l1Sum64AtMost", func(t float64) (float64, bool) { return l1Sum64AtMost(a, b, t) }},
			{"lpSum64AtMost(5)", func(t float64) (float64, bool) { return lpSum64AtMost(a, b, 5, t) }},
			{"maxAbs64AtMost", func(t float64) (float64, bool) { return maxAbs64AtMost(a, b, t) }},
			{"l2Sum32AtMost", func(t float64) (float64, bool) { return l2Sum32AtMost(a32, b32, t) }},
			{"l1Sum32AtMost", func(t float64) (float64, bool) { return l1Sum32AtMost(a32, b32, t) }},
			{"lpSum32AtMost(5)", func(t float64) (float64, bool) { return lpSum32AtMost(a32, b32, 5, t) }},
			{"maxAbs32AtMost", func(t float64) (float64, bool) { return maxAbs32AtMost(a32, b32, t) }},
		}
		for _, k := range kernels {
			full, ok := k.at(inf)
			if !ok {
				t.Errorf("dim %d: %s abandoned at an infinite budget", dim, k.name)
				continue
			}
			for _, budget := range []float64{full, math.Nextafter(full, inf), 2 * full} {
				got, ok := k.at(budget)
				if !ok {
					t.Errorf("dim %d: %s abandoned at budget %v ≥ value %v", dim, k.name, budget, full)
					continue
				}
				if math.Float64bits(got) != math.Float64bits(full) {
					t.Errorf("dim %d: %s completed AtMost(%v) = %v, AtMost(+Inf) = %v (bits differ)",
						dim, k.name, budget, got, full)
				}
			}
			if full > 0 {
				under := math.Nextafter(full, 0)
				if _, ok := k.at(under); ok {
					t.Errorf("dim %d: %s within=true at budget %v < value %v", dim, k.name, under, full)
				}
			}
		}
	}
}

// TestVector32DistanceTolerance pins the float32 accuracy contract from the
// Vector32 doc: for coordinates in [0,1], the Lp distance between rounded
// float32 vectors differs from the float64 reference by at most
// 2·dim^(1/p)·max|c|·2⁻²⁴, because the kernels widen every coordinate to
// float64 before arithmetic (only the representation is rounded).
func TestVector32DistanceTolerance(t *testing.T) {
	for _, dim := range []int{1, 4, 9, 16, 33} {
		a, b := randPair64(dim, int64(300+dim))
		va, vb := NewVector(1, a), NewVector(2, b)
		va32, vb32 := NewVector32From64(1, a), NewVector32From64(2, b)
		for _, p := range []int{1, 2, 5} {
			fn := LpNorm{P: float64(p), Dim: dim, Scale: 1}
			d64 := fn.Distance(va, vb)
			d32 := fn.Distance(va32, vb32)
			tol := 2 * math.Pow(float64(dim), 1/float64(p)) * 1 * 0x1p-24
			if math.Abs(d64-d32) > tol {
				t.Errorf("dim %d p %d: |d64 - d32| = %g exceeds tolerance %g",
					dim, p, math.Abs(d64-d32), tol)
			}
		}
		li := LInf{Dim: dim}
		if diff := math.Abs(li.Distance(va, vb) - li.Distance(va32, vb32)); diff > 2*0x1p-24 {
			t.Errorf("dim %d LInf: rounding moved distance by %g", dim, diff)
		}
	}
}

// TestIntPowMatchesLoop: intPow with its low bits unrolled returns the
// textbook binary exponentiation loop's value bit for bit, for every order
// the Minkowski norms accept and over random bases plus the special values —
// signed zeros, subnormals, the largest float, infinities and NaN (compared
// by IsNaN, since NaN payloads need not survive a multiplication).
func TestIntPowMatchesLoop(t *testing.T) {
	loop := func(x float64, p int) float64 {
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
	xs := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1030, 0x1p-1022, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 1, -1, 0.5, 2}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		xs = append(xs, rng.Float64(), -rng.Float64()*4, rng.NormFloat64()*1e3)
	}
	for p := 0; p <= 64; p++ {
		for _, x := range xs {
			got, want := intPow(x, p), loop(x, p)
			if math.IsNaN(want) {
				if !math.IsNaN(got) {
					t.Fatalf("intPow(%v, %d) = %v, want NaN", x, p, got)
				}
				continue
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("intPow(%v, %d) = %v (%#x), loop %v (%#x)", x, p, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}
