package metric

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// batchCase is one metric with a compatible object population.
type batchCase struct {
	name string
	fn   DistanceFunc
	objs []Object
}

func batchCases(seed int64) []batchCase {
	rng := rand.New(rand.NewSource(seed))
	vec := func(id uint64, dim int) *Vector {
		c := make([]float64, dim)
		for i := range c {
			c[i] = rng.Float64()
		}
		return NewVector(id, c)
	}
	vecs := make([]Object, 40)
	vecs32 := make([]Object, 40)
	for i := range vecs {
		v := vec(uint64(i), 9) // 9 = one 4-group + 8-group tail coverage
		vecs[i] = v
		vecs32[i] = NewVector32From64(uint64(i), v.Coords)
	}
	sigs := make([]Object, 40)
	for i := range sigs {
		b := make([]byte, 11) // odd length exercises the byte tail
		rng.Read(b)
		sigs[i] = NewBitString(uint64(i), b)
	}
	base := "interrelationships"
	long := strings.Repeat("acgtacgtxy", 9) // 90 chars: blocked Myers path
	strs := []Object{
		NewStr(0, ""), NewStr(1, "a"), NewStr(2, base), NewStr(3, base+"suffix"),
		NewStr(4, "prefix"+base), NewStr(5, long), NewStr(6, long[:64]), NewStr(7, long[:65]),
		NewStr(8, "inter"+long+"ships"),
	}
	for i := 9; i < 40; i++ {
		w := make([]byte, 1+rng.Intn(30))
		for j := range w {
			w[j] = byte('a' + rng.Intn(6))
		}
		strs = append(strs, NewStr(uint64(i), string(w)))
	}
	return []batchCase{
		{"L2-vec64", L2(9), vecs},
		{"L5-vec64", L5(9), vecs},
		{"L2-vec32", L2(9), vecs32},
		{"L5-vec32", L5(9), vecs32},
		{"LInf-vec64", LInf{Dim: 9}, vecs},
		{"LInf-vec32", LInf{Dim: 9}, vecs32},
		{"hamming", Hamming{Bytes: 11}, sigs},
		{"edit", EditDistance{MaxLen: 120}, strs},
	}
}

// checkBatchAgainstScalar asserts the element-wise batch contract for one
// (query, threshold): every (d[i], within[i]) pair is bit-identical to the
// scalar DistanceAtMost result.
func checkBatchAgainstScalar(t *testing.T, name string, fn DistanceFunc, q Object, objs []Object, thr float64) {
	t.Helper()
	d := make([]float64, len(objs))
	within := make([]bool, len(objs))
	BatchDistanceAtMost(fn, q, objs, thr, d, within)
	for i, o := range objs {
		sd, sw := DistanceAtMost(fn, q, o, thr)
		if math.Float64bits(d[i]) != math.Float64bits(sd) || within[i] != sw {
			t.Fatalf("%s: q=%d cand=%d t=%v: batch (%v, %v) != scalar (%v, %v)",
				name, q.ID(), o.ID(), thr, d[i], within[i], sd, sw)
		}
		if sw {
			exact := fn.Distance(q, o)
			if math.Float64bits(d[i]) != math.Float64bits(exact) {
				t.Fatalf("%s: q=%d cand=%d t=%v: within d = %v != exact %v",
					name, q.ID(), o.ID(), thr, d[i], exact)
			}
		}
	}
}

// TestBatchMatchesScalarKernels is the metric-layer half of the equivalence
// harness (DESIGN.md §13): for every batch kernel and object kind, the block
// evaluation is bit-identical to the scalar bounded path at thresholds
// covering degenerate (< 0, +Inf), abandoning, and exactly-at-the-distance
// cases.
func TestBatchMatchesScalarKernels(t *testing.T) {
	for _, c := range batchCases(42) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if _, ok := c.fn.(BatchDistanceFunc); !ok {
				t.Fatalf("%T has no batch kernel", c.fn)
			}
			maxD := c.fn.MaxDistance()
			for qi := 0; qi < 6; qi++ {
				q := c.objs[qi]
				thresholds := []float64{-1, 0, 0.05 * maxD, 0.3 * maxD, maxD, math.Inf(1)}
				// Thresholds exactly at and just below a realized distance
				// probe the ≤-boundary of the within contract.
				ref := c.fn.Distance(q, c.objs[len(c.objs)-1])
				thresholds = append(thresholds, ref, math.Nextafter(ref, 0), ref/2)
				for _, thr := range thresholds {
					checkBatchAgainstScalar(t, c.name, c.fn, q, c.objs, thr)
				}
			}
		})
	}
}

// TestBatchFallbackAndCounter pins the package helper on what has no batch
// kernel of its own: a kernel-less metric falls back to an element-wise scalar
// loop with identical outputs, and a Counter — which the fallback reaches
// through its DistanceAtMost — counts exactly one computation per candidate.
func TestBatchFallbackAndCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seqs := make([]Object, 12)
	for i := range seqs {
		b := make([]byte, 30+rng.Intn(20))
		for j := range b {
			b[j] = "ACGT"[rng.Intn(4)]
		}
		seqs[i] = NewSeq(uint64(i), string(b))
	}
	ta := TrigramAngular{}
	if _, ok := DistanceFunc(ta).(BatchDistanceFunc); ok {
		t.Fatal("TrigramAngular unexpectedly has a batch kernel")
	}
	checkBatchAgainstScalar(t, "trigram-fallback", ta, seqs[0], seqs, 0.4*ta.MaxDistance())

	for _, c := range []struct {
		fn   DistanceFunc
		objs []Object
	}{
		{L2(9), batchCases(43)[0].objs},
		{ta, seqs},
	} {
		cnt := NewCounter(c.fn)
		d := make([]float64, len(c.objs))
		within := make([]bool, len(c.objs))
		BatchDistanceAtMost(cnt, c.objs[0], c.objs, 0.2, d, within)
		if got := cnt.Count(); got != int64(len(c.objs)) {
			t.Fatalf("%s: counted %d computations for a block of %d", c.fn.Name(), got, len(c.objs))
		}
	}
}

// TestEditQueryBranches drives every branch of editQuery.atMost against the
// scalar bounded kernel: degenerate thresholds, identical strings, affix
// stripping down to emptiness, the length-gap screen, the wide-band exact
// case, the narrow band, and both Myers kernels (≤64 and blocked > 64).
func TestEditQueryBranches(t *testing.T) {
	long := strings.Repeat("abcdefgh", 12) // 96 chars
	cases := []struct {
		q, text string
		t       float64
	}{
		{"kitten", "sitting", -1},                   // t < 0
		{"same", "same", 5},                         // q == text
		{"kitten", "sitting", 100},                  // t ≥ n: exact, always within
		{"ab", "abcdefghij", 3},                     // n - m > k after strip
		{"prefix", "prefixtail", 4},                 // m == 0 after affix strip
		{"prefix", "prefixtail", 2},                 // m == 0, gap > k → not within
		{"abcde", "vwxyz", 4},                       // 2k+1 ≥ m: wide band, exact
		{"abcdefghijklmnop", "ponmlkjihgfedcba", 3}, // narrow band → banded DP
		{long, long[:90] + "zzzzzz", 8},             // blocked Myers, shared prefix
		{long[:64], long[:64] + "xy", 1},            // exactly one word
		{long[:65], long[:60], 10},                  // just past one word
		{"", "nonempty", 3},                         // empty query
		{"nonempty", "", 3},                         // empty text
	}
	ed := EditDistance{MaxLen: 120}
	for _, c := range cases {
		eq := newEditQuery(c.q)
		gd, gw := eq.atMost(c.text, c.t)
		sd, sw := ed.DistanceAtMost(NewStr(0, c.q), NewStr(1, c.text), c.t)
		if float64(gd) != sd || gw != sw {
			t.Errorf("atMost(%q, %q, %v) = (%d, %v), scalar (%v, %v)",
				c.q, c.text, c.t, gd, gw, sd, sw)
		}
		if want := ed.Distance(NewStr(0, c.q), NewStr(1, c.text)); float64(eq.exact(c.text)) != want {
			t.Errorf("exact(%q, %q) = %d, want %v", c.q, c.text, eq.exact(c.text), want)
		}
	}
}
