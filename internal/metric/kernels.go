package metric

import "math"

// Unrolled vector inner loops (DESIGN.md §13). Every Lp/L∞ evaluation —
// exact and bounded, float64 and float32, on decoded objects and on payloads
// in place — runs one of the bounded ("AtMost") loops in this file; an exact
// Distance is the loop run with an infinite budget. Their floating-point
// summation order is therefore defined in exactly one place:
//
//   - float64 loops run 4 coordinates per block with 4 independent
//     accumulator lanes; float32 loops run 8 per block with 8 lanes (the
//     widths of one 256-bit vector register). Independent lanes break the
//     loop-carried addition dependency, letting the compiler and the CPU
//     overlap the multiplies.
//   - Lanes reduce pairwise — (s0+s1)+(s2+s3), and the 8-wide analogue — and
//     remainder coordinates past the last full block are added to the reduced
//     sum in index order.
//   - The abandon test evaluates that same pairwise reduction at each block
//     boundary without disturbing the lanes, so a run that completes under a
//     finite budget returns the bits of the run under an infinite one. This is
//     what keeps the BoundedDistanceFunc contract ("d is exactly
//     Distance(a, b) when within") true by construction rather than by
//     tolerance.
//
// float32 coordinates are widened to float64 before subtracting, so a
// float32 kernel computes the exact float64 Lp distance over the widened
// coordinates — see vector32.go for the resulting tolerance contract.

// l2Sum64AtMost returns Σ (a[i]-b[i])², 4-wide unrolled, with a budget on the
// partial sum tested at every block boundary: a partial sum above budget
// proves the final sum is too (the terms are non-negative) and the scan
// abandons. A completed scan returns the sum and whether it is ≤ budget.
func l2Sum64AtMost(a, b []float64, budget float64) (float64, bool) {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		if (s0+s1)+(s2+s3) > budget {
			return (s0 + s1) + (s2 + s3), false
		}
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s, s <= budget
}

// l2Sum32AtMost returns Σ (a[i]-b[i])² over widened coordinates, 8-wide
// unrolled, under a block-boundary budget test; see l2Sum64AtMost.
func l2Sum32AtMost(a, b []float32, budget float64) (float64, bool) {
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	i := 0
	for ; i+8 <= len(a); i += 8 {
		d0 := float64(a[i]) - float64(b[i])
		d1 := float64(a[i+1]) - float64(b[i+1])
		d2 := float64(a[i+2]) - float64(b[i+2])
		d3 := float64(a[i+3]) - float64(b[i+3])
		d4 := float64(a[i+4]) - float64(b[i+4])
		d5 := float64(a[i+5]) - float64(b[i+5])
		d6 := float64(a[i+6]) - float64(b[i+6])
		d7 := float64(a[i+7]) - float64(b[i+7])
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		s4 += d4 * d4
		s5 += d5 * d5
		s6 += d6 * d6
		s7 += d7 * d7
		if ((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7)) > budget {
			return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)), false
		}
	}
	s := ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
	for ; i < len(a); i++ {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s, s <= budget
}

// l1Sum64AtMost returns Σ |a[i]-b[i]|, 4-wide unrolled, under a
// block-boundary budget test.
func l1Sum64AtMost(a, b []float64, budget float64) (float64, bool) {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += math.Abs(a[i] - b[i])
		s1 += math.Abs(a[i+1] - b[i+1])
		s2 += math.Abs(a[i+2] - b[i+2])
		s3 += math.Abs(a[i+3] - b[i+3])
		if (s0+s1)+(s2+s3) > budget {
			return (s0 + s1) + (s2 + s3), false
		}
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(a); i++ {
		s += math.Abs(a[i] - b[i])
	}
	return s, s <= budget
}

// l1Sum32AtMost returns Σ |a[i]-b[i]| over widened coordinates, 8-wide
// unrolled, under a block-boundary budget test.
func l1Sum32AtMost(a, b []float32, budget float64) (float64, bool) {
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	i := 0
	for ; i+8 <= len(a); i += 8 {
		s0 += math.Abs(float64(a[i]) - float64(b[i]))
		s1 += math.Abs(float64(a[i+1]) - float64(b[i+1]))
		s2 += math.Abs(float64(a[i+2]) - float64(b[i+2]))
		s3 += math.Abs(float64(a[i+3]) - float64(b[i+3]))
		s4 += math.Abs(float64(a[i+4]) - float64(b[i+4]))
		s5 += math.Abs(float64(a[i+5]) - float64(b[i+5]))
		s6 += math.Abs(float64(a[i+6]) - float64(b[i+6]))
		s7 += math.Abs(float64(a[i+7]) - float64(b[i+7]))
		if ((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7)) > budget {
			return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)), false
		}
	}
	s := ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
	for ; i < len(a); i++ {
		s += math.Abs(float64(a[i]) - float64(b[i]))
	}
	return s, s <= budget
}

// lpSum64AtMost returns Σ |a[i]-b[i]|^p for a small integer p, 4-wide
// unrolled, under a block-boundary budget test. Every term goes through
// intPow.
func lpSum64AtMost(a, b []float64, p int, budget float64) (float64, bool) {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += intPow(math.Abs(a[i]-b[i]), p)
		s1 += intPow(math.Abs(a[i+1]-b[i+1]), p)
		s2 += intPow(math.Abs(a[i+2]-b[i+2]), p)
		s3 += intPow(math.Abs(a[i+3]-b[i+3]), p)
		if (s0+s1)+(s2+s3) > budget {
			return (s0 + s1) + (s2 + s3), false
		}
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(a); i++ {
		s += intPow(math.Abs(a[i]-b[i]), p)
	}
	return s, s <= budget
}

// lpSum32AtMost returns Σ |a[i]-b[i]|^p over widened coordinates, 8-wide
// unrolled, under a block-boundary budget test.
func lpSum32AtMost(a, b []float32, p int, budget float64) (float64, bool) {
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	i := 0
	for ; i+8 <= len(a); i += 8 {
		s0 += intPow(math.Abs(float64(a[i])-float64(b[i])), p)
		s1 += intPow(math.Abs(float64(a[i+1])-float64(b[i+1])), p)
		s2 += intPow(math.Abs(float64(a[i+2])-float64(b[i+2])), p)
		s3 += intPow(math.Abs(float64(a[i+3])-float64(b[i+3])), p)
		s4 += intPow(math.Abs(float64(a[i+4])-float64(b[i+4])), p)
		s5 += intPow(math.Abs(float64(a[i+5])-float64(b[i+5])), p)
		s6 += intPow(math.Abs(float64(a[i+6])-float64(b[i+6])), p)
		s7 += intPow(math.Abs(float64(a[i+7])-float64(b[i+7])), p)
		if ((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7)) > budget {
			return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)), false
		}
	}
	s := ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
	for ; i < len(a); i++ {
		s += intPow(math.Abs(float64(a[i])-float64(b[i])), p)
	}
	return s, s <= budget
}

// maxAbs64AtMost returns max |a[i]-b[i]|, 4-wide unrolled, with a
// block-boundary threshold test: the running maximum only grows, so one block
// whose maximum exceeds t proves the distance does. max is associative and
// commutative over non-NaN floats, so the lane split cannot change the
// result, and a NaN coordinate difference never raises the maximum.
func maxAbs64AtMost(a, b []float64, t float64) (float64, bool) {
	var m0, m1, m2, m3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		if d := math.Abs(a[i] - b[i]); d > m0 {
			m0 = d
		}
		if d := math.Abs(a[i+1] - b[i+1]); d > m1 {
			m1 = d
		}
		if d := math.Abs(a[i+2] - b[i+2]); d > m2 {
			m2 = d
		}
		if d := math.Abs(a[i+3] - b[i+3]); d > m3 {
			m3 = d
		}
		if m := max4(m0, m1, m2, m3); m > t {
			return m, false
		}
	}
	m := max4(m0, m1, m2, m3)
	for ; i < len(a); i++ {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
			if m > t {
				return m, false
			}
		}
	}
	return m, m <= t
}

// maxAbs32AtMost returns max |a[i]-b[i]| over widened coordinates, 8-wide
// unrolled, under a block-boundary threshold test.
func maxAbs32AtMost(a, b []float32, t float64) (float64, bool) {
	var m0, m1, m2, m3 float64
	i := 0
	for ; i+8 <= len(a); i += 8 {
		if d := math.Abs(float64(a[i]) - float64(b[i])); d > m0 {
			m0 = d
		}
		if d := math.Abs(float64(a[i+1]) - float64(b[i+1])); d > m1 {
			m1 = d
		}
		if d := math.Abs(float64(a[i+2]) - float64(b[i+2])); d > m2 {
			m2 = d
		}
		if d := math.Abs(float64(a[i+3]) - float64(b[i+3])); d > m3 {
			m3 = d
		}
		if d := math.Abs(float64(a[i+4]) - float64(b[i+4])); d > m0 {
			m0 = d
		}
		if d := math.Abs(float64(a[i+5]) - float64(b[i+5])); d > m1 {
			m1 = d
		}
		if d := math.Abs(float64(a[i+6]) - float64(b[i+6])); d > m2 {
			m2 = d
		}
		if d := math.Abs(float64(a[i+7]) - float64(b[i+7])); d > m3 {
			m3 = d
		}
		if m := max4(m0, m1, m2, m3); m > t {
			return m, false
		}
	}
	m := max4(m0, m1, m2, m3)
	for ; i < len(a); i++ {
		if d := math.Abs(float64(a[i]) - float64(b[i])); d > m {
			m = d
			if m > t {
				return m, false
			}
		}
	}
	return m, m <= t
}

// max4 returns the maximum of four lane maxima.
func max4(a, b, c, d float64) float64 {
	if b > a {
		a = b
	}
	if d > c {
		c = d
	}
	if c > a {
		return c
	}
	return a
}

// dot64 returns Σ a[i]*b[i], 4-wide unrolled: lanes reduce pairwise, the
// remainder adds in index order. TrigramAngular's profile similarity runs on
// it.
func dot64(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// dot32 returns Σ a[i]*b[i] over widened coordinates, 8-wide unrolled.
func dot32(a, b []float32) float64 {
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	i := 0
	for ; i+8 <= len(a); i += 8 {
		s0 += float64(a[i]) * float64(b[i])
		s1 += float64(a[i+1]) * float64(b[i+1])
		s2 += float64(a[i+2]) * float64(b[i+2])
		s3 += float64(a[i+3]) * float64(b[i+3])
		s4 += float64(a[i+4]) * float64(b[i+4])
		s5 += float64(a[i+5]) * float64(b[i+5])
		s6 += float64(a[i+6]) * float64(b[i+6])
		s7 += float64(a[i+7]) * float64(b[i+7])
	}
	s := ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
	for ; i < len(a); i++ {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}
