package metric

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// kernelCase is one metric with a compatible object population.
type kernelCase struct {
	name  string
	fn    DistanceFunc
	codec Codec
	objs  []Object
}

func kernelCases(seed int64) []kernelCase {
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
	vc, v32c := VectorCodec{Dim: 9}, Vector32Codec{Dim: 9}
	return []kernelCase{
		{"L2-vec64", L2(9), vc, vecs},
		{"L5-vec64", L5(9), vc, vecs},
		{"L2-vec32", L2(9), v32c, vecs32},
		{"L5-vec32", L5(9), v32c, vecs32},
		{"LInf-vec64", LInf{Dim: 9}, vc, vecs},
		{"LInf-vec32", LInf{Dim: 9}, v32c, vecs32},
		{"hamming", Hamming{Bytes: 11}, BitStringCodec{Bytes: 11}, sigs},
		{"edit", EditDistance{MaxLen: 120}, StrCodec{}, strs},
	}
}

// checkPayloadAgainstScalar asserts the prepared kernel's contract for one
// (query, threshold): PayloadAtMost on each candidate's stored bytes,
// decoding into one reused slot, is bit-identical to the scalar
// DistanceAtMost, and within, that is Distance's value. It reads in place for
// edit distance and the fixed-width metrics (inPlace), which hand back no
// object, and decodes through codec for every other metric, which hands back
// the candidate.
func checkPayloadAgainstScalar(t *testing.T, name string, fn DistanceFunc, codec Codec, q Object, objs []Object, thr float64) {
	t.Helper()
	prep := Prepare(fn, codec, q, nil)
	noObj := inPlace(fn)
	var slot Object
	for _, o := range objs {
		sd, sw := DistanceAtMost(fn, q, o, thr)
		if sw {
			exact := fn.Distance(q, o)
			if math.Float64bits(sd) != math.Float64bits(exact) {
				t.Fatalf("%s: q=%d cand=%d t=%v: within d = %v != exact %v",
					name, q.ID(), o.ID(), thr, sd, exact)
			}
		}
		pd, pw, obj, err := prep.PayloadAtMost(q, o.ID(), o.AppendBinary(nil), slot, thr)
		if err != nil || math.Float64bits(pd) != math.Float64bits(sd) || pw != sw {
			t.Fatalf("%s: q=%d cand=%d t=%v: payload (%v, %v, %v) != scalar (%v, %v)",
				name, q.ID(), o.ID(), thr, pd, pw, err, sd, sw)
		}
		if noObj != (obj == nil) || obj != nil && (obj.ID() != o.ID() || string(obj.AppendBinary(nil)) != string(o.AppendBinary(nil))) {
			t.Fatalf("%s: q=%d cand=%d: payload evaluation handed back %v", name, q.ID(), o.ID(), obj)
		}
		if obj != nil {
			slot = obj
		}
	}
}

// inPlace reports whether Prepare reads fn's payloads in place: edit distance
// and Hamming on every host, an integer-order Minkowski norm and L∞ where a
// vector payload is readable as its coordinates (vectorsInPlace).
func inPlace(fn DistanceFunc) bool {
	switch f := fn.(type) {
	case EditDistance, Hamming:
		return true
	case LInf:
		return vectorsInPlace
	case LpNorm:
		_, ok := f.intP()
		return ok && vectorsInPlace
	}
	return false
}

// TestBatchMatchesScalarKernels is the metric-layer half of the
// equivalence harness (DESIGN.md §13.1): for every in-place kernel and object
// kind, and for the generic binding over a metric with no kernel of its own,
// the prepared kernel's evaluation of the stored payloads is bit-identical to
// the scalar bounded path at thresholds covering degenerate (< 0, +Inf),
// abandoning, and exactly-at-the-distance cases.
func TestBatchMatchesScalarKernels(t *testing.T) {
	for _, c := range kernelCases(42) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			maxD := c.fn.MaxDistance()
			for qi := 0; qi < 6; qi++ {
				q := c.objs[qi]
				thresholds := []float64{-1, 0, 0.05 * maxD, 0.3 * maxD, maxD, math.Inf(1)}
				// Thresholds exactly at and just below a realized distance
				// probe the ≤-boundary of the within contract.
				ref := c.fn.Distance(q, c.objs[len(c.objs)-1])
				thresholds = append(thresholds, ref, math.Nextafter(ref, 0), ref/2)
				for _, thr := range thresholds {
					checkPayloadAgainstScalar(t, c.name, c.fn, c.codec, q, c.objs, thr)
				}
			}
			// A payload its codec rejects is the payload entry's error.
			if _, edit := c.fn.(EditDistance); !edit {
				if _, _, _, err := Prepare(c.fn, c.codec, c.objs[0], nil).PayloadAtMost(c.objs[0], 1, []byte{1, 2, 3}, nil, 1); err == nil {
					t.Fatal("a 3-byte payload decoded")
				}
			}
		})
	}
	t.Run("trigram-generic", func(t *testing.T) {
		ta, seqs := TrigramAngular{}, dnaSeqs()
		checkPayloadAgainstScalar(t, "trigram-generic", ta, SeqCodec{}, seqs[0], seqs, 0.4*ta.MaxDistance())
	})
}

// dnaSeqs returns twelve random DNA sequences of 30–49 bases.
func dnaSeqs() []Object {
	rng := rand.New(rand.NewSource(7))
	seqs := make([]Object, 12)
	for i := range seqs {
		b := make([]byte, 30+rng.Intn(20))
		for j := range b {
			b[j] = "ACGT"[rng.Intn(4)]
		}
		seqs[i] = NewSeq(uint64(i), string(b))
	}
	return seqs
}

// TestPayloadKernelsMisaligned runs every fixed-width case's prepared kernel
// on payloads that start at each byte offset 0–7 of a larger buffer, as a
// record's payload starts wherever its record does: each (d, within) is
// DistanceAtMost's bit for bit, below, at and just under a realized distance
// and at both degenerate thresholds, and a payload one byte short or long is
// the codec's error. Under -race the runtime checks every view it makes.
func TestPayloadKernelsMisaligned(t *testing.T) {
	for _, c := range kernelCases(44) {
		if _, edit := c.fn.(EditDistance); edit {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			for qi := 0; qi < 3; qi++ {
				q := c.objs[qi]
				prep := Prepare(c.fn, c.codec, q, nil)
				for _, o := range c.objs {
					payload := o.AppendBinary(nil)
					d := c.fn.Distance(q, o)
					for off := 0; off < 8; off++ {
						buf := make([]byte, off+len(payload)+1)
						copy(buf[off:], payload)
						for _, thr := range []float64{-1, 0, d, math.Nextafter(d, 0), math.Inf(1)} {
							sd, sw := DistanceAtMost(c.fn, q, o, thr)
							pd, pw, obj, err := prep.PayloadAtMost(q, o.ID(), buf[off:off+len(payload)], nil, thr)
							if err != nil || math.Float64bits(pd) != math.Float64bits(sd) || pw != sw {
								t.Fatalf("q=%d cand=%d offset %d t=%v: payload (%v, %v, %v) != scalar (%v, %v)",
									q.ID(), o.ID(), off, thr, pd, pw, err, sd, sw)
							}
							if inPlace(c.fn) && obj != nil {
								t.Fatalf("q=%d cand=%d: the in-place kernel handed back %v", q.ID(), o.ID(), obj)
							}
						}
						for _, bad := range [][]byte{buf[off : off+len(payload)-1], buf[off : off+len(payload)+1]} {
							if _, _, _, err := prep.PayloadAtMost(q, o.ID(), bad, nil, 1); err == nil {
								t.Fatalf("q=%d cand=%d offset %d: a %d-byte payload for a %d-byte kind was evaluated", q.ID(), o.ID(), off, len(bad), len(payload))
							}
						}
					}
				}
			}
		})
	}
}

// TestEditBatchAllocationFree: a kept edit kernel is re-prepared in place,
// its bitmaps for one-word patterns and for blocked ones of up to 8 blocks
// and 16 distinct bytes in its own arrays, and the banded DP keeps its band
// on the stack at any text length, so preparing a query and evaluating a
// block of payloads costs no allocation. The long query runs at a threshold
// that takes the blocked Myers kernel and at one that takes the band.
func TestEditBatchAllocationFree(t *testing.T) {
	var ed DistanceFunc = EditDistance{MaxLen: 600}
	for _, c := range []struct {
		q   string
		thr float64
	}{{"interrelationships", 4}, {strings.Repeat("acgtn", 100), 300}, {strings.Repeat("acgtn", 100), 4}} {
		qs := c.q
		q := NewStr(0, qs)
		payloads := make([][]byte, 16)
		for i := range payloads {
			payloads[i] = []byte(qs[i%3:len(qs)-i%5] + "xy"[:i%3])
		}
		prep := Prepare(ed, StrCodec{}, q, nil)
		if allocs := testing.AllocsPerRun(50, func() {
			prep = Prepare(ed, StrCodec{}, q, prep)
			for i, p := range payloads {
				prep.PayloadAtMost(q, uint64(i+1), p, nil, c.thr)
			}
		}); allocs != 0 {
			t.Errorf("query of %d bytes at t=%v: %v allocations per block, want 0", len(qs), c.thr, allocs)
		}
	}
}

// TestBandedEditDistanceOnTheStack: the banded DP runs only when 2k+1 < m,
// m the shorter string's length, so its 2k+3 cells fit the 128-int stack
// array for every m ≤ 126 — DNA reads of 108 and 110 bytes included, at the
// thresholds of a short, a middling and the widest band such a read allows.
// It makes no allocation at the widest band of every such m.
func TestBandedEditDistanceOnTheStack(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	read := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = "ACGT"[rng.Intn(4)]
		}
		return string(b)
	}
	type run struct{ m, n, k int }
	var runs []run
	for _, m := range []int{108, 110} {
		for _, k := range []int{10, 40, 53} {
			runs = append(runs, run{m, m, k}, run{m, m + 3, k})
		}
	}
	for m := 3; m <= 126; m++ {
		runs = append(runs, run{m, m + 1, (m - 2) / 2})
	}
	for _, r := range runs {
		if 2*r.k+1 >= r.m {
			t.Fatalf("m %d, k %d: outside the banded DP's domain", r.m, r.k)
		}
		a, b := read(r.m), read(r.n)
		if allocs := testing.AllocsPerRun(10, func() {
			bandedEditDistance(a, b, r.k)
		}); allocs != 0 {
			t.Errorf("strings of %d and %d bytes at k = %d: %v allocations, want 0", r.m, r.n, r.k, allocs)
		}
	}
}

// TestBatchFallbackAndCounter pins the package helper the benchmark harness
// calls: a Counter, which the loop reaches through its DistanceAtMost, counts
// exactly one computation per candidate, for a metric with a bounded kernel
// and for one without.
func TestBatchFallbackAndCounter(t *testing.T) {
	for _, c := range []struct {
		fn   DistanceFunc
		objs []Object
	}{
		{L2(9), kernelCases(43)[0].objs},
		{TrigramAngular{}, dnaSeqs()},
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
		var eq editQuery
		eq.init(c.q)
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

// TestPrepareReusesEditKernel: Prepare re-initialises a kept Myers kernel in
// place, through patterns of one word, of blocked bitmaps on the stack and on
// the heap, and the empty one, in every order: each re-prepared kernel
// evaluates every text as a fresh one does, and points at its own copy of the
// query's bytes, not at the query's.
func TestPrepareReusesEditKernel(t *testing.T) {
	ed := EditDistance{MaxLen: 600}
	var wide strings.Builder
	for c := byte('!'); c < '!'+90; c++ {
		wide.WriteByte(c) // 90 distinct bytes: the bitmaps outgrow peqBuf
	}
	queries := []string{
		"kitten", strings.Repeat("abcdefgh", 12), "", wide.String(),
		"sitting", wide.String()[:70], "kitten", strings.Repeat("acgt", 30),
	}
	texts := append([]string{"", "kitchen", "abcdefgh", wide.String()[3:80]}, queries...)
	var prev PreparedQuery
	for round := 0; round < 2; round++ {
		for i, qs := range queries {
			q := NewStr(uint64(i), strings.Clone(qs))
			prep := Prepare(ed, StrCodec{}, q, prev)
			if prev != nil && prep != prev {
				t.Fatalf("query %d: Prepare allocated a new kernel instead of re-initialising the kept one", i)
			}
			prev = prep
			eq := prep.(*editQuery)
			if len(q.S) > 0 && unsafe.StringData(eq.q) == unsafe.StringData(q.S) {
				t.Fatalf("query %d: the kernel points at the query's bytes", i)
			}
			var fresh editQuery
			fresh.init(q.S)
			for _, text := range texts {
				for _, thr := range []float64{0, 3, 20, math.Inf(1)} {
					gd, gw := eq.atMost(text, thr)
					wd, ww := fresh.atMost(text, thr)
					if gd != wd || gw != ww {
						t.Fatalf("query %q, text %q, t=%v: re-prepared (%d, %v), fresh (%d, %v)", q.S, text, thr, gd, gw, wd, ww)
					}
				}
				if got, want := eq.exact(text), fresh.exact(text); got != want {
					t.Fatalf("query %q, text %q: re-prepared exact %d, fresh %d", q.S, text, got, want)
				}
			}
		}
	}
}
