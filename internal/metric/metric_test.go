package metric

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLevenshteinKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"defoliate", "defoliates", 1},
		{"defoliate", "defoliated", 1},
		{"defoliate", "defoliating", 3},
		{"defoliate", "citrate", 6},
		{"abc", "abc", 0},
		{"abc", "cba", 2},
	}
	for _, c := range cases {
		if got := editDistance(c.a, c.b); got != c.want {
			t.Errorf("editDistance(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := editDistance(c.b, c.a); got != c.want {
			t.Errorf("editDistance(%q, %q) = %d, want %d (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

// naiveLevenshtein is the full-matrix reference implementation.
func naiveLevenshtein(a, b string) int {
	m := make([][]int, len(a)+1)
	for i := range m {
		m[i] = make([]int, len(b)+1)
		m[i][0] = i
	}
	for j := 0; j <= len(b); j++ {
		m[0][j] = j
	}
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			best := m[i-1][j-1] + cost
			if d := m[i-1][j] + 1; d < best {
				best = d
			}
			if d := m[i][j-1] + 1; d < best {
				best = d
			}
			m[i][j] = best
		}
	}
	return m[len(a)][len(b)]
}

func TestLevenshteinMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := "abcd"
	randStr := func() string {
		n := rng.Intn(12)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		return sb.String()
	}
	for i := 0; i < 500; i++ {
		a, b := randStr(), randStr()
		if got, want := editDistance(a, b), naiveLevenshtein(a, b); got != want {
			t.Fatalf("editDistance(%q, %q) = %d, want %d", a, b, got, want)
		}
	}
}

func TestHammingKnownValues(t *testing.T) {
	h := Hamming{Bytes: 2}
	a := NewBitString(1, []byte{0x00, 0x00})
	b := NewBitString(2, []byte{0xFF, 0x00})
	c := NewBitString(3, []byte{0xF0, 0x01})
	if got := h.Distance(a, b); got != 8 {
		t.Errorf("Hamming(00,FF) = %v, want 8", got)
	}
	if got := h.Distance(a, c); got != 5 {
		t.Errorf("Hamming(0000,F001) = %v, want 5", got)
	}
	if got := h.Distance(b, c); got != 5 {
		t.Errorf("Hamming(FF00,F001) = %v, want 5", got)
	}
	if got := h.Distance(a, a); got != 0 {
		t.Errorf("Hamming(x,x) = %v, want 0", got)
	}
	// Wide signatures exercise the 8-byte fast path.
	wide := Hamming{Bytes: 17}
	x := make([]byte, 17)
	y := make([]byte, 17)
	y[0], y[8], y[16] = 0x01, 0x80, 0xFF
	if got := wide.Distance(NewBitString(1, x), NewBitString(2, y)); got != 10 {
		t.Errorf("wide Hamming = %v, want 10", got)
	}
}

func TestLpNormKnownValues(t *testing.T) {
	l2 := L2(2)
	a := NewVector(1, []float64{0, 0})
	b := NewVector(2, []float64{3, 4})
	if got := l2.Distance(a, b); math.Abs(got-5) > 1e-12 {
		t.Errorf("L2 = %v, want 5", got)
	}
	l1 := LpNorm{P: 1, Dim: 2, Scale: 1}
	if got := l1.Distance(a, b); math.Abs(got-7) > 1e-12 {
		t.Errorf("L1 = %v, want 7", got)
	}
	l5 := L5(2)
	want := math.Pow(math.Pow(3, 5)+math.Pow(4, 5), 0.2)
	if got := l5.Distance(a, b); math.Abs(got-want) > 1e-12 {
		t.Errorf("L5 = %v, want %v", got, want)
	}
	linf := LInf{Dim: 2, Scale: 1}
	if got := linf.Distance(a, b); got != 4 {
		t.Errorf("Linf = %v, want 4", got)
	}
}

func TestMaxDistance(t *testing.T) {
	if got := L2(4).MaxDistance(); math.Abs(got-2) > 1e-12 {
		t.Errorf("L2(4).MaxDistance = %v, want 2", got)
	}
	if got := (Hamming{Bytes: 8}).MaxDistance(); got != 64 {
		t.Errorf("Hamming{8}.MaxDistance = %v, want 64", got)
	}
	if got := (EditDistance{MaxLen: 34}).MaxDistance(); got != 34 {
		t.Errorf("EditDistance.MaxDistance = %v, want 34", got)
	}
	if got := (TrigramAngular{}).MaxDistance(); got != 1 {
		t.Errorf("TrigramAngular.MaxDistance = %v, want 1", got)
	}
}

// metricAxioms checks the four metric postulates for a triple of objects.
func metricAxioms(t *testing.T, d DistanceFunc, a, b, c Object, eq func(x, y Object) bool) {
	t.Helper()
	const eps = 1e-9
	dab, dba := d.Distance(a, b), d.Distance(b, a)
	if math.Abs(dab-dba) > eps {
		t.Fatalf("%s: symmetry violated: d(a,b)=%v d(b,a)=%v", d.Name(), dab, dba)
	}
	if dab < 0 {
		t.Fatalf("%s: negative distance %v", d.Name(), dab)
	}
	if eq(a, b) && dab > eps {
		t.Fatalf("%s: identical objects at distance %v", d.Name(), dab)
	}
	dac, dbc := d.Distance(a, c), d.Distance(b, c)
	if dab > dac+dbc+eps {
		t.Fatalf("%s: triangle inequality violated: d(a,b)=%v > d(a,c)+d(c,b)=%v", d.Name(), dab, dac+dbc)
	}
}

func TestTriangleInequalityVectors(t *testing.T) {
	for _, d := range []DistanceFunc{L2(8), L5(8), LpNorm{P: 1, Dim: 8, Scale: 1}, LInf{Dim: 8, Scale: 1}} {
		d := d
		f := func(ac, bc, cc [8]float64) bool {
			a := NewVector(1, clamp01(ac[:]))
			b := NewVector(2, clamp01(bc[:]))
			c := NewVector(3, clamp01(cc[:]))
			eq := func(x, y Object) bool {
				xv, yv := x.(*Vector), y.(*Vector)
				for i := range xv.Coords {
					if xv.Coords[i] != yv.Coords[i] {
						return false
					}
				}
				return true
			}
			metricAxioms(t, d, a, b, c, eq)
			return !t.Failed()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
	}
}

func clamp01(c []float64) []float64 {
	out := make([]float64, len(c))
	for i, v := range c {
		v = math.Abs(math.Mod(v, 1))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0.5
		}
		out[i] = v
	}
	return out
}

func TestTriangleInequalityStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := EditDistance{MaxLen: 16}
	randStr := func() *Str {
		n := rng.Intn(16)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(4))
		}
		return NewStr(uint64(rng.Int63()), string(b))
	}
	for i := 0; i < 400; i++ {
		a, b, c := randStr(), randStr(), randStr()
		metricAxioms(t, d, a, b, c, func(x, y Object) bool { return x.(*Str).S == y.(*Str).S })
	}
}

func TestTriangleInequalityTrigram(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	d := TrigramAngular{}
	bases := "ACGT"
	randSeq := func() *Seq {
		n := 20 + rng.Intn(80)
		b := make([]byte, n)
		for i := range b {
			b[i] = bases[rng.Intn(4)]
		}
		return NewSeq(uint64(rng.Int63()), string(b))
	}
	for i := 0; i < 300; i++ {
		a, b, c := randSeq(), randSeq(), randSeq()
		// Identity only holds up to profile equality; skip the eq check by
		// never reporting two distinct sequences as equal.
		metricAxioms(t, d, a, b, c, func(x, y Object) bool { return x.(*Seq).S == y.(*Seq).S })
	}
}

func TestTriangleInequalityHamming(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	d := Hamming{Bytes: 8}
	randSig := func() *BitString {
		b := make([]byte, 8)
		rng.Read(b)
		return NewBitString(uint64(rng.Int63()), b)
	}
	for i := 0; i < 400; i++ {
		a, b, c := randSig(), randSig(), randSig()
		metricAxioms(t, d, a, b, c, func(x, y Object) bool {
			xb, yb := x.(*BitString), y.(*BitString)
			for i := range xb.Bits {
				if xb.Bits[i] != yb.Bits[i] {
					return false
				}
			}
			return true
		})
	}
}

func TestCodecsRoundTrip(t *testing.T) {
	v := NewVector(42, []float64{0.25, -1.5, 3.75})
	got, err := (VectorCodec{Dim: 3}).Decode(42, v.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	gv := got.(*Vector)
	if gv.Id != 42 || len(gv.Coords) != 3 || gv.Coords[1] != -1.5 {
		t.Errorf("vector round trip: %+v", gv)
	}

	s := NewStr(7, "dictionary")
	gs, err := (StrCodec{}).Decode(7, s.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	if gs.(*Str).S != "dictionary" {
		t.Errorf("str round trip: %+v", gs)
	}

	b := NewBitString(9, []byte{1, 2, 3, 4})
	gb, err := (BitStringCodec{Bytes: 4}).Decode(9, b.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	if gb.(*BitString).Bits[3] != 4 {
		t.Errorf("bitstring round trip: %+v", gb)
	}

	q := NewSeq(3, "ACGTACGT")
	gq, err := (SeqCodec{}).Decode(3, q.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	if gq.(*Seq).S != "ACGTACGT" {
		t.Errorf("seq round trip: %+v", gq)
	}
}

func TestCodecErrors(t *testing.T) {
	if _, err := (VectorCodec{Dim: 2}).Decode(1, []byte{1, 2, 3}); err == nil {
		t.Error("VectorCodec accepted short payload")
	}
	if _, err := (BitStringCodec{Bytes: 4}).Decode(1, []byte{1}); err == nil {
		t.Error("BitStringCodec accepted short payload")
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter(L2(2))
	a, b := NewVector(1, []float64{0, 0}), NewVector(2, []float64{1, 0})
	for i := 0; i < 5; i++ {
		c.Distance(a, b)
	}
	if c.Count() != 5 {
		t.Errorf("Count = %d, want 5", c.Count())
	}
	c.Reset()
	if c.Count() != 0 {
		t.Errorf("Count after Reset = %d, want 0", c.Count())
	}
	if c.Name() != "L2" || c.Discrete() || c.MaxDistance() != math.Sqrt2 {
		t.Errorf("Counter does not delegate: name=%q discrete=%v d+=%v", c.Name(), c.Discrete(), c.MaxDistance())
	}
}

func TestSampleStats(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	objs := make([]Object, 200)
	for i := range objs {
		objs[i] = NewVector(uint64(i), []float64{rng.Float64(), rng.Float64()})
	}
	s := SampleStats(objs, L2(2), 2000, rng)
	if s.Pairs != 2000 {
		t.Fatalf("Pairs = %d", s.Pairs)
	}
	// Mean distance between uniform points in the unit square is ~0.5214.
	if s.Mean < 0.45 || s.Mean > 0.6 {
		t.Errorf("Mean = %v, want ≈0.52", s.Mean)
	}
	if s.IntrinsicDim < 1 || s.IntrinsicDim > 5 {
		t.Errorf("IntrinsicDim = %v, want ≈2-3 for 2-d uniform", s.IntrinsicDim)
	}
	if s.Max <= 0 || s.Max > math.Sqrt2 {
		t.Errorf("Max = %v", s.Max)
	}
}

func TestSampleStatsDegenerate(t *testing.T) {
	s := SampleStats(nil, L2(2), 100, nil)
	if s.Pairs != 0 {
		t.Errorf("empty dataset produced %d pairs", s.Pairs)
	}
	objs := []Object{NewVector(0, []float64{1}), NewVector(1, []float64{1})}
	s = SampleStats(objs, L2(1), 0, nil)
	if s.Pairs != 0 {
		t.Errorf("pairs=0 produced %d pairs", s.Pairs)
	}
}

func TestDistancePanicsOnWrongType(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("LpNorm accepted a *Str without panicking")
		}
	}()
	L2(2).Distance(NewStr(1, "x"), NewVector(2, []float64{0, 0}))
}

func TestTrigramEmptyProfiles(t *testing.T) {
	d := TrigramAngular{}
	empty := NewSeq(1, "XX") // too short for a tri-gram
	full := NewSeq(2, "ACGTACGT")
	if got := d.Distance(empty, empty); got != 0 {
		t.Errorf("d(empty, empty) = %v, want 0", got)
	}
	if got := d.Distance(empty, full); got != 1 {
		t.Errorf("d(empty, full) = %v, want 1", got)
	}
}

func TestDistanceFuncMetadata(t *testing.T) {
	cases := []struct {
		d        DistanceFunc
		name     string
		discrete bool
		dPlus    float64
	}{
		{EditDistance{MaxLen: 34}, "edit", true, 34},
		{Hamming{Bytes: 8}, "hamming", true, 64},
		{TrigramAngular{}, "trigram-angular", false, 1},
		{Jaccard{}, "jaccard", false, 1},
		{L2(4), "L2", false, 2},
		{L5(2), "L5", false, math.Pow(2, 0.2)},
		{LpNorm{P: 1.5, Dim: 2, Scale: 1}, "L1.5", false, math.Pow(2, 1/1.5)},
		{LInf{Dim: 3, Scale: 2}, "Linf", false, 2},
	}
	for _, c := range cases {
		if got := c.d.Name(); got != c.name {
			t.Errorf("%T.Name() = %q, want %q", c.d, got, c.name)
		}
		if got := c.d.Discrete(); got != c.discrete {
			t.Errorf("%s.Discrete() = %v", c.name, got)
		}
		if got := c.d.MaxDistance(); math.Abs(got-c.dPlus) > 1e-12 {
			t.Errorf("%s.MaxDistance() = %v, want %v", c.name, got, c.dPlus)
		}
	}
}

func TestObjectStringersAndIDs(t *testing.T) {
	objs := []Object{
		NewVector(1, []float64{1, 2}),
		NewStr(2, "hi"),
		NewBitString(3, []byte{0xAA}),
		NewSeq(4, "ACGT"),
		NewSet(5, []uint64{9}),
	}
	for i, o := range objs {
		if o.ID() != uint64(i+1) {
			t.Errorf("object %d: ID = %d", i, o.ID())
		}
		s := fmt.Sprintf("%v", o)
		if s == "" {
			t.Errorf("object %d: empty String()", i)
		}
	}
}

func TestCounterNilAndUnwrap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewCounter(nil) did not panic")
		}
	}()
	c := NewCounter(L2(2))
	if c.Unwrap().Name() != "L2" {
		t.Error("Unwrap lost the inner metric")
	}
	NewCounter(nil)
}

func TestIntrinsicDimensionalityWrapper(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	objs := make([]Object, 100)
	for i := range objs {
		objs[i] = NewVector(uint64(i), []float64{rng.Float64(), rng.Float64(), rng.Float64()})
	}
	rho := IntrinsicDimensionality(objs, L2(3), 1000, rng)
	if rho < 1 || rho > 8 {
		t.Errorf("rho = %v for 3-d uniform", rho)
	}
}

// TestCodecsDoNotRetain enforces the Codec contract "implementations must not
// retain data", which the RAF's zero-copy record decoding depends on: an
// object decoded from a buffer must re-encode to the original bytes after the
// buffer has been scribbled over. The decode-into path (SlotCodec, and
// DecodeInto's fallback for the codecs without it) gets the same treatment
// over every kind of slot — none, one holding a longer and one a shorter
// value of the same kind, one of another kind: the result is the new value
// whatever the slot held, and it owns its storage — overwriting a slot it did
// not take over, or decoding something else into another slot, leaves it
// alone.
func TestCodecsDoNotRetain(t *testing.T) {
	scribble := func(b []byte) {
		for i := range b {
			b[i] = ^b[i]
		}
	}
	for _, tc := range []struct {
		codec         Codec
		obj           Object
		longer, other Object // same kind, different values
	}{
		{StrCodec{}, NewStr(1, "zero-copy"), NewStr(7, "a considerably longer string"), NewStr(8, "x")},
		{SeqCodec{}, &Seq{Id: 2, S: "ACGTTGCA"}, &Seq{Id: 7, S: "ACGTTGCAACGTTGCA"}, &Seq{Id: 8, S: "T"}},
		{VectorCodec{Dim: 3}, NewVector(3, []float64{0.25, -1, 7}), NewVector(7, []float64{1, 2, 3}), NewVector(8, []float64{4, 5, 6})},
		{Vector32Codec{Dim: 3}, NewVector32(4, []float32{0.5, 2, -3}), NewVector32(7, []float32{1, 2, 3}), NewVector32(8, []float32{4, 5, 6})},
		{BitStringCodec{Bytes: 4}, &BitString{Id: 5, Bits: []byte{1, 2, 3, 0xF0}}, &BitString{Id: 7, Bits: []byte{9, 9, 9, 9}}, &BitString{Id: 8, Bits: []byte{0, 0, 0, 0}}},
		{SetCodec{}, &Set{Id: 6, Elems: []uint64{3, 9, 27}}, &Set{Id: 7, Elems: []uint64{1, 2, 3, 4, 5, 6}}, &Set{Id: 8, Elems: []uint64{5}}},
	} {
		want := tc.obj.AppendBinary(nil)
		buf := append([]byte(nil), want...)
		got, err := tc.codec.Decode(tc.obj.ID(), buf)
		if err != nil {
			t.Fatalf("%T: %v", tc.codec, err)
		}
		scribble(buf)
		if round := got.AppendBinary(nil); string(round) != string(want) {
			t.Errorf("%T retains its input: re-encodes to %x after the buffer was scribbled, want %x", tc.codec, round, want)
		}

		decoded := func(o Object) Object { // o as the codec decodes it: a slot
			d, err := tc.codec.Decode(o.ID(), o.AppendBinary(nil))
			if err != nil {
				t.Fatalf("%T: %v", tc.codec, err)
			}
			return d
		}
		otherBytes := tc.other.AppendBinary(nil)
		for name, slot := range map[string]Object{
			"no slot":      nil,
			"longer slot":  decoded(tc.longer),
			"shorter slot": decoded(tc.other),
			"foreign slot": &foreignObject{},
		} {
			buf := append([]byte(nil), want...)
			got, err := DecodeInto(tc.codec, slot, tc.obj.ID(), buf)
			if err != nil {
				t.Fatalf("%T into %s: %v", tc.codec, name, err)
			}
			scribble(buf)
			if _, foreign := slot.(*foreignObject); slot != nil && got != slot && !foreign {
				// The slot was not taken over: overwriting it is its owner's right.
				if _, err := DecodeInto(tc.codec, slot, 99, otherBytes); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := DecodeInto(tc.codec, decoded(tc.longer), 98, otherBytes); err != nil {
				t.Fatal(err)
			}
			if round := got.AppendBinary(nil); got.ID() != tc.obj.ID() || string(round) != string(want) {
				t.Errorf("%T into %s: object %d re-encodes to %x, want object %d %x", tc.codec, name, got.ID(), round, tc.obj.ID(), want)
			}
		}
	}
}

// TestGenericBindingReusesSlot: the generic binding of a metric to a slot
// codec decodes each candidate into the slot the previous call returned, so
// evaluating a candidate on its payload allocates nothing once the slot
// exists.
func TestGenericBindingReusesSlot(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	sig := func(id uint64) Object {
		b := make([]byte, 64)
		rng.Read(b)
		return NewBitString(id, b)
	}
	for _, c := range []struct {
		name  string
		fn    DistanceFunc
		codec Codec
		q, o  Object
	}{
		{"hamming", Hamming{Bytes: 64}, BitStringCodec{Bytes: 64}, sig(1), sig(2)},
		{"L2-vec64", L2(4), VectorCodec{Dim: 4}, NewVector(1, []float64{1, 2, 3, 4}), NewVector(2, []float64{4, 3, 2, 1})},
		{"L5-vec32", L5(4), Vector32Codec{Dim: 4}, NewVector32(1, []float32{1, 2, 3, 4}), NewVector32(2, []float32{4, 3, 2, 1})},
	} {
		b := boundQuery{c.fn, c.codec}
		payload := c.o.AppendBinary(nil)
		want := c.fn.Distance(c.q, c.o)
		_, _, slot, err := b.PayloadAtMost(c.q, c.o.ID(), payload, nil, math.Inf(1))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			var d float64
			d, _, slot, err = b.PayloadAtMost(c.q, c.o.ID(), payload, slot, math.Inf(1))
			if err != nil || d != want {
				t.Fatalf("%s: d = %v, err %v; want %v", c.name, d, err, want)
			}
		}); allocs != 0 {
			t.Errorf("%s: re-decoding into the slot made %v allocations per candidate, want 0", c.name, allocs)
		}
	}
}

// foreignObject is a slot of a kind no codec of this package decodes into.
type foreignObject struct{}

func (*foreignObject) ID() uint64                   { return 0 }
func (*foreignObject) AppendBinary(b []byte) []byte { return b }
