package metric

import (
	"math"
	"math/bits"
	"slices"
	"strings"
	"testing"
)

// FuzzLevenshtein cross-checks the exact edit kernel, editDistance, against
// the full-matrix reference and the metric axioms on arbitrary byte strings.
func FuzzLevenshtein(f *testing.F) {
	f.Add("kitten", "sitting")
	f.Add("", "abc")
	f.Add("same", "same")
	f.Add("a\x00b", "\xffxyz")
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 64 || len(b) > 64 {
			return // keep the quadratic reference cheap
		}
		got := editDistance(a, b)
		want := naiveLevenshtein(a, b)
		if got != want {
			t.Fatalf("editDistance(%q, %q) = %d, want %d", a, b, got, want)
		}
		if sym := editDistance(b, a); sym != got {
			t.Fatalf("asymmetric: %d vs %d", got, sym)
		}
		if (got == 0) != (a == b) {
			t.Fatalf("identity violated for %q, %q", a, b)
		}
		// Bounds: |len(a)-len(b)| <= d <= max(len(a), len(b)).
		lo := len(a) - len(b)
		if lo < 0 {
			lo = -lo
		}
		hi := len(a)
		if len(b) > hi {
			hi = len(b)
		}
		if got < lo || got > hi {
			t.Fatalf("distance %d outside [%d, %d]", got, lo, hi)
		}
	})
}

// FuzzBoundedDistance asserts the BoundedDistanceFunc contract — within ⇔
// Distance ≤ t, and a bit-identical distance when within — for arbitrary
// strings, vectors, signatures, and thresholds, and that Distance is
// DistanceAtMost at t = +∞ bit for bit. The threshold is also derived from
// the exact distance itself (scaled and nudged) so the fuzzer exercises the
// boundary cases that matter most. For edit distance it also checks the
// exact kernel against the full-matrix reference, and the bag screen on any
// bytes: the bag distance never exceeds the Levenshtein distance, so the
// screen never rejects a candidate within the threshold; the prepared
// query's histogram gives the same bag distance; and a histogram of a
// repeated 2^32 + 1 times, counts a narrower integer would wrap, gives the
// bag distance of that length.
func FuzzBoundedDistance(f *testing.F) {
	f.Add("kitten", "sitting", 2.0)
	f.Add("", "abc", 3.0)
	f.Add("same", "same", 0.0)
	f.Add("a\x00b", "\xffxyz", -1.0)
	f.Add("longer string with some shared words", "longer string with other shared words", 5.5)
	f.Add("\x80\x81\xfe\xff\xff", "\xff\xfe\x80", 1.0)
	f.Add(strings.Repeat("acgt", 20)+"x", strings.Repeat("acgt", 19)+"tgca", 3.0)
	f.Fuzz(func(t *testing.T, a, b string, thr float64) {
		if len(a) > 256 || len(b) > 256 || math.IsNaN(thr) {
			return
		}
		lev := editDistance(a, b)
		if want := naiveLevenshtein(a, b); lev != want {
			t.Fatalf("editDistance(%q, %q) = %d, want %d", a, b, lev, want)
		}
		bag := bagDistance(a, b)
		if bag > lev {
			t.Fatalf("bag distance %d of %q, %q exceeds the edit distance %d", bag, a, b, lev)
		}
		var eq editQuery
		eq.init(a)
		if got := bagFrom(&eq.hist, len(a), b); got != bag {
			t.Fatalf("prepared bag distance %d of %q, %q, want %d", got, a, b, bag)
		}
		// The histogram of a repeated r times: counts past 32 bits on a
		// 64-bit int, for strings no memory holds. A byte of b that a has
		// is then always matched, so the bag distance is known in closed
		// form, and bagFrom must leave the histogram as it found it.
		const r = 1<<(bits.UintSize/2) + 1
		big := eq.hist
		for c := range big {
			big[c] *= r
		}
		miss := 0
		for i := 0; i < len(b); i++ {
			if eq.hist[b[i]] == 0 {
				miss++
			}
		}
		before := big
		if got, want := bagFrom(&big, len(a)*r, b), max(miss, miss+len(a)*r-len(b)); got != want || big != before {
			t.Fatalf("bag distance of %q repeated %d times and %q = %d, want %d (histogram restored: %v)", a, r, b, got, want, big == before)
		}
		check := func(fn BoundedDistanceFunc, oa, ob Object, thr float64) {
			exact := fn.Distance(oa, ob)
			if d, within := fn.DistanceAtMost(oa, ob, math.Inf(1)); !within || math.Float64bits(d) != math.Float64bits(exact) {
				t.Fatalf("%s: DistanceAtMost at +Inf = (%v, %v), Distance %v", fn.Name(), d, within, exact)
			}
			d, within := fn.DistanceAtMost(oa, ob, thr)
			if want := exact <= thr; within != want {
				t.Fatalf("%s: within=%v at t=%v, exact=%v", fn.Name(), within, thr, exact)
			}
			if within && math.Float64bits(d) != math.Float64bits(exact) {
				t.Fatalf("%s: bounded d=%v != exact %v at t=%v", fn.Name(), d, exact, thr)
			}
		}

		ed := EditDistance{MaxLen: 256}
		sa, sb := NewStr(1, a), NewStr(2, b)
		exact := ed.Distance(sa, sb)
		for _, tt := range []float64{thr, exact, exact - 1, exact + 0.5, exact * 0.5} {
			check(ed, sa, sb, tt)
			if tt >= exact && tt < math.MaxInt32 && bag > int(tt) {
				t.Fatalf("bag screen %d rejects %q, %q at t=%v, distance %v", bag, a, b, tt, exact)
			}
		}

		// Reinterpret the strings as vector coordinates and bit signatures so
		// one corpus drives every kernel.
		dim := 8
		ca, cb := make([]float64, dim), make([]float64, dim)
		for i := 0; i < dim; i++ {
			if i < len(a) {
				ca[i] = float64(a[i]) / 255
			}
			if i < len(b) {
				cb[i] = float64(b[i]) / 255
			}
		}
		va, vb := NewVector(1, ca), NewVector(2, cb)
		for _, fn := range []BoundedDistanceFunc{L2(dim), L5(dim), LInf{Dim: dim, Scale: 1}} {
			e := fn.Distance(va, vb)
			for _, tt := range []float64{thr, e, e * (1 - 1e-9), e * (1 + 1e-9)} {
				check(fn, va, vb, tt)
			}
		}

		pa, pb := make([]byte, 12), make([]byte, 12)
		copy(pa, a)
		copy(pb, b)
		ba, bb := NewBitString(1, pa), NewBitString(2, pb)
		ham := Hamming{Bytes: 12}
		he := ham.Distance(ba, bb)
		for _, tt := range []float64{thr, he, he - 1, he + 0.5} {
			check(ham, ba, bb, tt)
		}
	})
}

// FuzzBatchDistance asserts the PreparedQuery contract — PayloadAtMost on
// each candidate's stored bytes returns DistanceAtMost's (d, within) bit for
// bit — for arbitrary queries, candidates and thresholds across every kernel
// the query path runs in place (on a host where vectors are not readable in
// place, through the codec). The corpus strings are reinterpreted as vectors
// (both float64 and float32, and as raw coordinate bits) and bit signatures,
// the same trick FuzzBoundedDistance uses, so one corpus drives the Lp,
// Chebyshev, Hamming and Myers kernels at once.
func FuzzBatchDistance(f *testing.F) {
	f.Add("kitten", "sitting", "mittens", 2.0)
	f.Add("", "abc", "abd", 3.0)
	f.Add("same", "same", "same", 0.0)
	f.Add("a\x00b", "\xffxyz", "pq", -1.0)
	f.Add("interrelationship", "interrelationships", "relations", 5.0)
	f.Add(strings.Repeat("\xf0\x9f", 40), strings.Repeat("\x9f\xf0", 41), "\xff", 6.0)
	f.Fuzz(func(t *testing.T, q, c1, c2 string, thr float64) {
		if len(q) > 200 || len(c1) > 200 || len(c2) > 200 || math.IsNaN(thr) {
			return
		}
		check := func(fn DistanceFunc, codec Codec, oq Object, objs []Object, thr float64) {
			t.Helper()
			prep := Prepare(fn, codec, oq, nil)
			for i, o := range objs {
				sd, sw := DistanceAtMost(fn, oq, o, thr)
				pd, pw, _, err := prep.PayloadAtMost(oq, o.ID(), o.AppendBinary(nil), nil, thr)
				if err != nil || math.Float64bits(pd) != math.Float64bits(sd) || pw != sw {
					t.Fatalf("%s: cand %d t=%v: payload (%v, %v, %v) != scalar (%v, %v)",
						fn.Name(), i, thr, pd, pw, err, sd, sw)
				}
			}
		}

		ed := EditDistance{MaxLen: 256}
		sq := NewStr(0, q)
		strCands := []Object{NewStr(1, c1), NewStr(2, c2), NewStr(3, q), NewStr(4, "")}
		exact := ed.Distance(sq, strCands[0])
		for _, tt := range []float64{thr, exact, exact - 1, exact + 0.5} {
			check(ed, StrCodec{}, sq, strCands, tt)
		}

		dim := 8
		coords := func(s string) []float64 {
			c := make([]float64, dim)
			for i := 0; i < dim && i < len(s); i++ {
				c[i] = float64(s[i]) / 255
			}
			return c
		}
		vq := NewVector(0, coords(q))
		vCands := []Object{NewVector(1, coords(c1)), NewVector(2, coords(c2)), NewVector(3, coords(q))}
		vq32 := NewVector32From64(0, coords(q))
		v32Cands := []Object{NewVector32From64(1, coords(c1)), NewVector32From64(2, coords(c2)), NewVector32From64(3, coords(q))}
		// The strings' bytes read as raw coordinate bits as well: NaNs,
		// infinities, subnormals and negative zeros reach the in-place views.
		bits64 := func(id uint64, s string) Object {
			v, err := VectorCodec{Dim: dim}.Decode(id, []byte((s + strings.Repeat("\x00", 8*dim))[:8*dim]))
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		bits32 := func(id uint64, s string) Object {
			v, err := Vector32Codec{Dim: dim}.Decode(id, []byte((s + strings.Repeat("\x00", 4*dim))[:4*dim]))
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		rq, rq32 := bits64(0, q), bits32(0, q)
		rCands := []Object{bits64(1, c1), bits64(2, c2), bits64(3, q)}
		r32Cands := []Object{bits32(1, c1), bits32(2, c2), bits32(3, q)}
		for _, fn := range []DistanceFunc{L2(dim), L5(dim), LInf{Dim: dim, Scale: 1}} {
			e := fn.Distance(vq, vCands[0])
			for _, tt := range []float64{thr, e, e * (1 - 1e-9)} {
				check(fn, VectorCodec{Dim: dim}, vq, vCands, tt)
				check(fn, Vector32Codec{Dim: dim}, vq32, v32Cands, tt)
				check(fn, VectorCodec{Dim: dim}, rq, rCands, tt)
				check(fn, Vector32Codec{Dim: dim}, rq32, r32Cands, tt)
			}
		}

		sig := func(id uint64, s string) Object {
			b := make([]byte, 12)
			copy(b, s)
			return NewBitString(id, b)
		}
		ham := Hamming{Bytes: 12}
		bq := sig(0, q)
		bCands := []Object{sig(1, c1), sig(2, c2), sig(3, q)}
		he := ham.Distance(bq, bCands[0])
		for _, tt := range []float64{thr, he, he - 1} {
			check(ham, BitStringCodec{Bytes: 12}, bq, bCands, tt)
		}
	})
}

// FuzzFloat32Roundtrip checks the float32 vector kind end to end: every
// coordinate block round-trips bit-exactly through Vector32Codec, and the
// float32 Lp distances stay within the documented rounding tolerance
// (2·dim^(1/p)·max|c|·2⁻²⁴) of the float64 reference on the same
// coordinates.
func FuzzFloat32Roundtrip(f *testing.F) {
	f.Add([]byte{}, []byte{1, 2, 3, 4})
	f.Add([]byte{0, 0, 63, 128}, []byte{255, 255, 255, 255})
	f.Add(make([]byte, 32), []byte("spbtree float32 roundtrip seed"))
	f.Fuzz(func(t *testing.T, pa, pb []byte) {
		dim := len(pa) / 4
		if dim == 0 || dim > 64 {
			return
		}
		if len(pb) < len(pa) {
			pb = append(pb, make([]byte, len(pa)-len(pb))...)
		}
		codec := Vector32Codec{Dim: dim}
		obj, err := codec.Decode(9, pa[:4*dim])
		if err != nil {
			return // e.g. payload decoding to NaN/Inf coordinates, if rejected
		}
		va := obj.(*Vector32)
		if round := va.AppendBinary(nil); string(round) != string(pa[:4*dim]) {
			t.Fatalf("Vector32Codec roundtrip: % x -> % x", pa[:4*dim], round)
		}

		// Derive clean [0,1] coordinate pairs from the raw bytes for the
		// tolerance check (decoded bits may be NaN/Inf, which no tolerance
		// bound covers).
		ca, cb := make([]float64, dim), make([]float64, dim)
		maxC := 0.0
		for i := 0; i < dim; i++ {
			ca[i] = float64(pa[4*i]) / 255
			cb[i] = float64(pb[4*i]) / 255
			if a := math.Abs(ca[i]); a > maxC {
				maxC = a
			}
			if b := math.Abs(cb[i]); b > maxC {
				maxC = b
			}
		}
		v64a, v64b := NewVector(1, ca), NewVector(2, cb)
		v32a, v32b := NewVector32From64(1, ca), NewVector32From64(2, cb)
		for _, p := range []float64{1, 2, 5} {
			fn := LpNorm{P: p, Dim: dim, Scale: 1}
			d64 := fn.Distance(v64a, v64b)
			d32 := fn.Distance(v32a, v32b)
			tol := 2 * math.Pow(float64(dim), 1/p) * maxC * 0x1p-24
			if math.Abs(d64-d32) > tol {
				t.Fatalf("p=%v dim=%d: |%v - %v| > tolerance %v", p, dim, d64, d32, tol)
			}
		}
	})
}

// FuzzCodecsNoPanic feeds arbitrary payloads to every codec: errors are
// fine, panics are not, and successful decodes must re-encode to the same
// bytes.
func FuzzCodecsNoPanic(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(1))
	f.Add([]byte("ACGTACGT"), uint8(2))
	f.Add(make([]byte, 64), uint8(3))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		codecs := []Codec{
			VectorCodec{Dim: 3},
			StrCodec{},
			BitStringCodec{Bytes: 8},
			SeqCodec{},
			SetCodec{},
			Vector32Codec{Dim: 3},
		}
		c := codecs[int(which)%len(codecs)]
		in := append([]byte(nil), data...)
		obj, err := c.Decode(42, in)
		if err != nil {
			return
		}
		if obj.ID() != 42 {
			t.Fatalf("decoded id %d", obj.ID())
		}
		// The RAF decodes out of pinned cache frames: the object must not
		// alias the buffer it was decoded from.
		for i := range in {
			in[i] = ^in[i]
		}
		round := obj.AppendBinary(nil)

		// The decode-into path, over a slot that holds another value (the
		// payload reversed, where that decodes) or none: same object, and
		// independent of the payload and of a slot it did not take over.
		rev := append([]byte(nil), data...)
		slices.Reverse(rev)
		slot, _ := c.Decode(7, rev)
		in = append(in[:0], data...)
		into, err := DecodeInto(c, slot, 42, in)
		if err != nil {
			t.Fatalf("DecodeInto fails where Decode succeeds: %v", err)
		}
		for i := range in {
			in[i] = ^in[i]
		}
		if slot != nil && into != slot {
			if _, err := DecodeInto(c, slot, 7, rev); err != nil {
				t.Fatalf("decode into a used slot: %v", err)
			}
		}
		if into.ID() != 42 || string(into.AppendBinary(nil)) != string(round) {
			t.Fatalf("DecodeInto gives object %d %x, Decode gives %x", into.ID(), into.AppendBinary(nil), round)
		}

		if string(round) != string(data) {
			// Sets normalize (sort/dedup); re-decoding the normalized form
			// must then be stable.
			round2, err := c.Decode(42, round)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if string(round2.AppendBinary(nil)) != string(round) {
				t.Fatal("encoding not idempotent")
			}
		}
	})
}
