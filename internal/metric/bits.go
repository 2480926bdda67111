package metric

import (
	"fmt"
	"math"
	"math/bits"
)

// BitString is a fixed-width binary signature, used for the Signature
// workload under Hamming distance (the paper: 49,740 64-byte signatures).
type BitString struct {
	Id   uint64
	Bits []byte
}

// NewBitString returns a bit-signature object.
func NewBitString(id uint64, b []byte) *BitString { return &BitString{Id: id, Bits: b} }

// ID returns the object identifier.
func (b *BitString) ID() uint64 { return b.Id }

// AppendBinary appends the raw signature bytes.
func (b *BitString) AppendBinary(dst []byte) []byte { return append(dst, b.Bits...) }

// String implements fmt.Stringer.
func (b *BitString) String() string {
	return fmt.Sprintf("BitString(%d, %d bits)", b.Id, 8*len(b.Bits))
}

// BitStringCodec decodes BitString payloads of a known byte width.
type BitStringCodec struct {
	// Bytes is the signature width in bytes.
	Bytes int
}

// Decode implements Codec.
func (c BitStringCodec) Decode(id uint64, data []byte) (Object, error) {
	return c.DecodeInto(nil, id, data)
}

// DecodeInto implements SlotCodec, reusing a *BitString slot and its bytes.
func (c BitStringCodec) DecodeInto(slot Object, id uint64, data []byte) (Object, error) {
	if len(data) != c.Bytes {
		return nil, fmt.Errorf("metric: bit-string payload is %d bytes, want %d", len(data), c.Bytes)
	}
	b, ok := slot.(*BitString)
	if !ok {
		b = new(BitString)
	}
	b.Id, b.Bits = id, append(b.Bits[:0], data...)
	return b, nil
}

// Hamming is the Hamming distance between equal-width bit strings.
// Distances are integers, so the space is discrete.
type Hamming struct {
	// Bytes is the signature width in bytes; d+ = 8*Bytes.
	Bytes int
}

// Distance implements DistanceFunc: it is DistanceAtMost at t = +∞, which
// never abandons.
func (h Hamming) Distance(a, b Object) float64 {
	d, _ := h.DistanceAtMost(a, b, math.Inf(1))
	return d
}

// DistanceAtMost implements BoundedDistanceFunc. The popcount accumulator
// only grows, so the scan abandons after the first 8-byte word that pushes
// the count past ⌊t⌋; a completed scan returns the exact distance.
func (h Hamming) DistanceAtMost(a, b Object, t float64) (float64, bool) {
	ba, ok := a.(*BitString)
	if !ok {
		panic(badType("Hamming", "*BitString", a))
	}
	bb, ok := b.(*BitString)
	if !ok {
		panic(badType("Hamming", "*BitString", b))
	}
	return hammingAtMost(ba.Bits, bb.Bits, t)
}

// hammingAtMost is the popcount loop of every Hamming evaluation: exact,
// bounded, and the prepared kernel's on payloads in place.
func hammingAtMost(a, b []byte, t float64) (float64, bool) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("metric: Hamming on signatures of %d and %d bytes", len(a), len(b)))
	}
	n := 0
	i := 0
	for ; i+8 <= len(a); i += 8 {
		x := leUint64(a[i:]) ^ leUint64(b[i:])
		n += bits.OnesCount64(x)
		if float64(n) > t {
			return float64(n), false
		}
	}
	for ; i < len(a); i++ {
		n += bits.OnesCount8(a[i] ^ b[i])
	}
	return float64(n), float64(n) <= t
}

func leUint64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// MaxDistance returns d+ = 8*Bytes, the signature width in bits.
func (h Hamming) MaxDistance() float64 { return float64(8 * h.Bytes) }

// Discrete reports true.
func (h Hamming) Discrete() bool { return true }

// Name implements DistanceFunc.
func (h Hamming) Name() string { return "hamming" }

var (
	_ DistanceFunc        = Hamming{}
	_ BoundedDistanceFunc = Hamming{}
	_ SlotCodec           = BitStringCodec{}
)
