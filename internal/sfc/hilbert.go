package sfc

// hilbertCurve implements the n-dimensional Hilbert curve using Skilling's
// transpose algorithm (J. Skilling, "Programming the Hilbert curve", AIP
// Conf. Proc. 707, 2004). Coordinates are first converted to the
// "transposed" Hilbert representation and then bit-interleaved into a single
// key with dimension 0 holding the most significant bit of each level.
//
// When dims ≤ maxTableDims the encode runs as a top-down transducer over a
// state table (hilbertTable); above it, it runs Skilling's loop.
type hilbertCurve struct {
	dims, bits int
	pack       packTable
	fwd        hilbertTable // nil above maxTableDims
}

func (h *hilbertCurve) Dims() int    { return h.dims }
func (h *hilbertCurve) Bits() int    { return h.bits }
func (h *hilbertCurve) Name() string { return "hilbert" }

// Encode maps a grid point to its Hilbert key.
func (h *hilbertCurve) Encode(p Point) uint64 {
	checkPoint(h, p)
	return h.EncodeCell(Pack(p, h.bits))
}

// EncodeCell implements Curve.
func (h *hilbertCurve) EncodeCell(cell uint64) uint64 {
	if h.fwd == nil {
		var buf [maxDims]uint32
		x := buf[:h.dims]
		Unpack(cell, h.bits, x)
		axesToTranspose(x, h.bits)
		return interleave(x, h.bits)
	}
	return h.fwd.key(h.pack.key(cell), h.dims, h.bits)
}

// maxDims bounds the stack buffer Skilling's loop works in; dims*bits <= 64
// implies dims <= 64.
const maxDims = 64

// axesToTranspose converts coordinates in x (b bits each) into the transposed
// Hilbert index in place.
func axesToTranspose(x []uint32, b int) {
	n := len(x)
	m := uint32(1) << (b - 1)
	// Inverse undo.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p // invert
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// interleave packs the transposed representation into a single key: the bit
// at level l (l = b-1 is most significant) of dimension i lands at key bit
// (l*n + (n-1-i)) counted from the least significant end of the n*b-bit key.
func interleave(x []uint32, b int) uint64 {
	n := len(x)
	var key uint64
	for l := b - 1; l >= 0; l-- {
		for i := 0; i < n; i++ {
			key = key<<1 | uint64((x[i]>>l)&1)
		}
	}
	return key
}

var _ Curve = (*hilbertCurve)(nil)
