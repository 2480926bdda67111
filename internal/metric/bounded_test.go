package metric

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randString draws a random string over an alphabet of the given size, so
// tests cover both dense-match (small alphabet) and sparse-match regimes.
func randString(rng *rand.Rand, maxLen, alphabet int) string {
	n := rng.Intn(maxLen + 1)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(byte('a' + rng.Intn(alphabet)))
	}
	return sb.String()
}

func TestMyersMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 3000; trial++ {
		alphabet := 2 + rng.Intn(10)
		a := randString(rng, 70, alphabet) // crosses the 64-char word boundary
		b := randString(rng, 70, alphabet)
		want := naiveLevenshtein(a, b)
		if got := editDistance(a, b); got != want {
			t.Fatalf("editDistance(%q, %q) = %d, want %d", a, b, got, want)
		}
	}
}

func TestMyersBlockVariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		// DNA-length strings: 3-4 blocks, 4-letter alphabet.
		a := randString(rng, 220, 4)
		b := randString(rng, 220, 4)
		if len(a) < 80 {
			a += strings.Repeat("a", 80) // force the multi-block path
		}
		want := naiveLevenshtein(a, b)
		if got := editDistance(a, b); got != want {
			t.Fatalf("block editDistance(len %d, len %d) = %d, want %d", len(a), len(b), got, want)
		}
	}
}

// TestLevenshteinAffixStripAndStack: strings sharing long affixes, which the
// bounded kernel strips before any dynamic program, and strings longer than
// the banded DP's 128-int stack array must still agree with the reference,
// through the exact kernel and through the bounded one at +∞ and at the
// distance itself.
func TestLevenshteinAffixStripAndStack(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	check := func(a, b string) {
		t.Helper()
		want := naiveLevenshtein(a, b)
		if got := editDistance(a, b); got != want {
			t.Fatalf("editDistance(%q, %q) = %d, want %d", a, b, got, want)
		}
		for _, thr := range []float64{float64(want), math.Inf(1)} {
			if got, within := boundedEditDistance(a, b, thr); !within || got != want {
				t.Fatalf("boundedEditDistance(%q, %q, %v) = (%d, %v), want (%d, true)", a, b, thr, got, within, want)
			}
		}
	}
	for trial := 0; trial < 500; trial++ {
		pre := randString(rng, 20, 3)
		suf := randString(rng, 20, 3)
		check(pre+randString(rng, 30, 3)+suf, pre+randString(rng, 30, 3)+suf)
	}
	long := strings.Repeat("ab", 100) + "x" + strings.Repeat("cd", 100)
	long2 := strings.Repeat("ab", 100) + "yz" + strings.Repeat("cd", 100)
	check(long, long2)
}

// checkBoundedContract asserts the BoundedDistanceFunc contract for one
// evaluation: within ⇔ Distance(a,b) ≤ t, and when within, the returned
// distance is bit-identical to the exact one.
func checkBoundedContract(t *testing.T, fn BoundedDistanceFunc, a, b Object, thr float64) {
	t.Helper()
	exact := fn.Distance(a, b)
	d, within := fn.DistanceAtMost(a, b, thr)
	if want := exact <= thr; within != want {
		t.Fatalf("%s: DistanceAtMost(%v, %v, %v) within=%v, exact d=%v wants %v",
			fn.Name(), a, b, thr, within, exact, want)
	}
	if within && math.Float64bits(d) != math.Float64bits(exact) {
		t.Fatalf("%s: DistanceAtMost(%v, %v, %v) = %v within, exact = %v (not bit-identical)",
			fn.Name(), a, b, thr, d, exact)
	}
}

func TestBoundedEditDistanceContract(t *testing.T) {
	fn := EditDistance{MaxLen: 80}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 4000; trial++ {
		a := NewStr(1, randString(rng, 40, 2+rng.Intn(8)))
		b := NewStr(2, randString(rng, 40, 2+rng.Intn(8)))
		// Thresholds straddle the distance: exact hit, just below, just
		// above, random, and the degenerate cases.
		exact := fn.Distance(a, b)
		for _, thr := range []float64{exact, exact - 1, exact + 1, float64(rng.Intn(42)), 0, -1, math.Inf(1)} {
			checkBoundedContract(t, fn, a, b, thr)
		}
		// Fractional thresholds: edit distances are integers, so within at
		// t = d + 0.5 but not at t = d - 0.5.
		checkBoundedContract(t, fn, a, b, exact+0.5)
		checkBoundedContract(t, fn, a, b, exact-0.5)
	}
}

func TestBoundedLpContract(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, fn := range []LpNorm{L2(16), L5(16), {P: 1, Dim: 16, Scale: 1}, {P: 2.5, Dim: 16, Scale: 1}} {
		for trial := 0; trial < 2000; trial++ {
			a := NewVector(1, randCoords(rng, 16))
			b := NewVector(2, randCoords(rng, 16))
			exact := fn.Distance(a, b)
			for _, thr := range []float64{exact, exact * (1 - 1e-9), exact * (1 + 1e-9), rng.Float64() * 2, 0, -1, math.Inf(1)} {
				checkBoundedContract(t, fn, a, b, thr)
			}
		}
	}
}

func TestBoundedLInfHammingContract(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	linf := LInf{Dim: 16, Scale: 1}
	ham := Hamming{Bytes: 12} // covers the word loop and the byte tail
	for trial := 0; trial < 2000; trial++ {
		va := NewVector(1, randCoords(rng, 16))
		vb := NewVector(2, randCoords(rng, 16))
		exact := linf.Distance(va, vb)
		for _, thr := range []float64{exact, exact * 0.99, exact * 1.01, rng.Float64(), -1, math.Inf(1)} {
			checkBoundedContract(t, linf, va, vb, thr)
		}

		sa, sb := make([]byte, 12), make([]byte, 12)
		rng.Read(sa)
		rng.Read(sb)
		ba, bb := NewBitString(1, sa), NewBitString(2, sb)
		hd := ham.Distance(ba, bb)
		for _, thr := range []float64{hd, hd - 1, hd + 1, float64(rng.Intn(96)), hd - 0.5, hd + 0.5, -1, math.Inf(1)} {
			checkBoundedContract(t, ham, ba, bb, thr)
		}
	}
}

func randCoords(rng *rand.Rand, dim int) []float64 {
	c := make([]float64, dim)
	for i := range c {
		c[i] = rng.Float64()
	}
	return c
}

func TestLpIntPowerMatchesDefinition(t *testing.T) {
	// The intPow fast path must stay within float tolerance of the math.Pow
	// definition (they differ only in rounding), and the L5 constructor must
	// actually take it.
	rng := rand.New(rand.NewSource(23))
	l5 := L5(16)
	for trial := 0; trial < 2000; trial++ {
		a := NewVector(1, randCoords(rng, 16))
		b := NewVector(2, randCoords(rng, 16))
		got := l5.Distance(a, b)
		var s float64
		for i := range a.Coords {
			s += math.Pow(math.Abs(a.Coords[i]-b.Coords[i]), 5)
		}
		want := math.Pow(s, 1.0/5)
		if diff := math.Abs(got - want); diff > 1e-12*(1+want) {
			t.Fatalf("L5 fast path %v vs definition %v (diff %g)", got, want, diff)
		}
	}
	if p, ok := l5.intP(); !ok || p != 5 {
		t.Fatalf("L5 intP = %d, %v", p, ok)
	}
	if _, ok := (LpNorm{P: 2.5}).intP(); ok {
		t.Fatal("fractional order classified as integer")
	}
}

func TestDistanceAtMostHelperAndIsBounded(t *testing.T) {
	// TrigramAngular has no bounded kernel: the helper must fall back to an
	// exact evaluation with the same contract.
	fn := TrigramAngular{}
	a := NewSeq(1, "ACGTACGTACGT")
	b := NewSeq(2, "TTTTACGTCCCC")
	exact := fn.Distance(a, b)
	d, within := DistanceAtMost(fn, a, b, exact)
	if !within || d != exact {
		t.Fatalf("fallback DistanceAtMost = (%v, %v), want (%v, true)", d, within, exact)
	}
	if _, within := DistanceAtMost(fn, a, b, exact/2); within {
		t.Fatal("fallback DistanceAtMost within below the distance")
	}
	if IsBounded(fn) {
		t.Fatal("TrigramAngular reported bounded")
	}
	if !IsBounded(EditDistance{MaxLen: 10}) {
		t.Fatal("EditDistance not reported bounded")
	}

	// Counter: DistanceAtMost counts one compdist per call, abandoned or not,
	// and IsBounded unwraps.
	c := NewCounter(EditDistance{MaxLen: 10})
	if !IsBounded(c) {
		t.Fatal("IsBounded failed to unwrap Counter")
	}
	s1, s2 := NewStr(1, "kitten"), NewStr(2, "sitting")
	c.DistanceAtMost(s1, s2, 1) // abandons (d = 3)
	c.DistanceAtMost(s1, s2, 5) // completes
	if got := c.Count(); got != 2 {
		t.Fatalf("Counter.Count = %d after two bounded evaluations, want 2", got)
	}
	if IsBounded(NewCounter(TrigramAngular{})) {
		t.Fatal("Counter over TrigramAngular reported bounded")
	}
}
