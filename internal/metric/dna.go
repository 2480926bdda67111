package metric

import (
	"fmt"
	"math"
)

// Seq is a DNA sequence object over the alphabet {A, C, G, T}, used for the
// DNA workload. Its tri-gram count profile (4^3 = 64 dimensions) is computed
// once, when the object is made, since every distance computation needs it;
// Distance only reads it, so one Seq may be compared on many goroutines.
type Seq struct {
	Id  uint64
	S   string
	pro *[64]float64 // tri-gram profile, set by NewSeq and SeqCodec.Decode
	nrm float64      // Euclidean norm of pro
}

// NewSeq returns a DNA-sequence object.
func NewSeq(id uint64, s string) *Seq {
	q := &Seq{Id: id, S: s}
	q.pro, q.nrm = trigramProfile(s)
	return q
}

// ID returns the object identifier.
func (s *Seq) ID() uint64 { return s.Id }

// AppendBinary appends the raw sequence bytes.
func (s *Seq) AppendBinary(dst []byte) []byte { return append(dst, s.S...) }

// String implements fmt.Stringer.
func (s *Seq) String() string { return fmt.Sprintf("Seq(%d, len=%d)", s.Id, len(s.S)) }

// profile returns the tri-gram count vector and its norm: the stored one, or,
// for a Seq written as a bare literal, one computed afresh. It never writes s.
func (s *Seq) profile() (*[64]float64, float64) {
	if s.pro == nil {
		return trigramProfile(s.S)
	}
	return s.pro, s.nrm
}

// trigramProfile counts the tri-grams of s and returns them with their
// Euclidean norm.
func trigramProfile(s string) (*[64]float64, float64) {
	var p [64]float64
	for i := 0; i+3 <= len(s); i++ {
		a, okA := baseIndex(s[i])
		b, okB := baseIndex(s[i+1])
		c, okC := baseIndex(s[i+2])
		if okA && okB && okC {
			p[a<<4|b<<2|c]++
		}
	}
	var n float64
	for _, v := range p {
		n += v * v
	}
	return &p, math.Sqrt(n)
}

func baseIndex(c byte) (int, bool) {
	switch c {
	case 'A', 'a':
		return 0, true
	case 'C', 'c':
		return 1, true
	case 'G', 'g':
		return 2, true
	case 'T', 't':
		return 3, true
	}
	return 0, false
}

// SeqCodec decodes Seq payloads.
type SeqCodec struct{}

// Decode implements Codec.
func (SeqCodec) Decode(id uint64, data []byte) (Object, error) {
	return NewSeq(id, string(data)), nil
}

// TrigramAngular is the angular distance between tri-gram count profiles of
// DNA sequences: d(a, b) = arccos(cos-sim(a, b)) / π, normalized to [0, 1].
//
// The paper reports "cosine similarity under tri-gram counting space" for the
// DNA dataset. Raw cosine *distance* (1 − similarity) violates the triangle
// inequality that every pruning lemma of the index depends on; angular
// distance is the standard metric repair and induces the identical pair
// ordering, so the experiment shape is preserved (see DESIGN.md §3).
type TrigramAngular struct{}

// Distance implements DistanceFunc.
func (TrigramAngular) Distance(a, b Object) float64 {
	sa, ok := a.(*Seq)
	if !ok {
		panic(badType("TrigramAngular", "*Seq", a))
	}
	sb, ok := b.(*Seq)
	if !ok {
		panic(badType("TrigramAngular", "*Seq", b))
	}
	if sa.S == sb.S {
		// Identity fast path; also dodges the acos(1−ulp) ≈ 1e-8 noise that
		// sqrt rounding would otherwise introduce for d(x, x).
		return 0
	}
	pa, na := sa.profile()
	pb, nb := sb.profile()
	if na == 0 || nb == 0 {
		if na == 0 && nb == 0 {
			return 0
		}
		return 1
	}
	cos := dot64(pa[:], pb[:]) / (na * nb)
	// Clamp against floating-point drift before acos.
	if cos > 1 {
		cos = 1
	} else if cos < -1 {
		cos = -1
	}
	return math.Acos(cos) / math.Pi
}

// MaxDistance returns 1 (profiles are non-negative, so the true maximum
// angle is π/2, but the normalized domain is kept at [0, 1] for clarity).
func (TrigramAngular) MaxDistance() float64 { return 1 }

// Discrete reports false.
func (TrigramAngular) Discrete() bool { return false }

// Name implements DistanceFunc.
func (TrigramAngular) Name() string { return "trigram-angular" }

var (
	_ DistanceFunc = TrigramAngular{}
	_ Codec        = SeqCodec{}
)
