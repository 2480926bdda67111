package sfc

// hilbertCurve implements the n-dimensional Hilbert curve using Skilling's
// transpose algorithm (J. Skilling, "Programming the Hilbert curve", AIP
// Conf. Proc. 707, 2004). Coordinates are first converted to/from the
// "transposed" Hilbert representation and then bit-interleaved into a single
// key with dimension 0 holding the most significant bit of each level.
//
// Decode runs Skilling's inverse as a top-down transducer over a state table
// (hilbertTable) when dims ≤ maxTableDims, and his loop otherwise.
type hilbertCurve struct {
	dims, bits int
	tab        unpackTable
	states     hilbertTable // nil above maxTableDims
}

func (h *hilbertCurve) Dims() int    { return h.dims }
func (h *hilbertCurve) Bits() int    { return h.bits }
func (h *hilbertCurve) Name() string { return "hilbert" }

// Encode maps a grid point to its Hilbert key.
func (h *hilbertCurve) Encode(p Point) uint64 {
	checkPoint(h, p)
	var buf [maxDims]uint32
	x := buf[:h.dims]
	copy(x, p)
	axesToTranspose(x, h.bits)
	return interleave(x, h.bits)
}

// Decode fills p with the coordinates of key.
func (h *hilbertCurve) Decode(key uint64, p Point) {
	if len(p) != h.dims {
		panic("sfc: Decode point has wrong dimensionality")
	}
	h.decode(key, p)
}

// DecodeBlock implements Curve.
func (h *hilbertCurve) DecodeBlock(keys []uint64, out []uint32) {
	if len(out) != len(keys)*h.dims {
		panic("sfc: DecodeBlock output has wrong length")
	}
	for i, key := range keys {
		h.decode(key, out[i*h.dims:(i+1)*h.dims])
	}
}

func (h *hilbertCurve) decode(key uint64, p []uint32) {
	if h.states == nil {
		h.tab.deinterleave(key, p, h.bits)
		transposeToAxes(p, h.bits)
		return
	}
	h.tab.deinterleave(h.states.transposed(key, h.dims, h.bits), p, h.bits)
}

// maxDims bounds the stack buffer used to avoid allocating per Encode call;
// dims*bits <= 64 implies dims <= 64.
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

// transposeToAxes converts the transposed Hilbert index in x (b bits each)
// back into coordinates in place.
func transposeToAxes(x []uint32, b int) {
	n := len(x)
	// Gray decode by H ^ (H/2).
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work: where x[i] has bit q set, invert x[0]'s low bits,
	// otherwise exchange the low bits of x[0] and x[i]. This runs once per
	// leaf entry a traversal scans, so x[0] — which every step reads and
	// writes — stays in a register, and the data-dependent choice is a mask,
	// not a branch that mispredicts half the time.
	x0 := x[0]
	for lvl := 1; lvl < b; lvl++ {
		p := uint32(1)<<lvl - 1
		for i := n - 1; i > 0; i-- {
			xi := x[i]
			set := -(xi >> lvl & 1) // all ones iff bit q of x[i] is set
			t := (x0 ^ xi) & p &^ set
			x0 ^= t | p&set
			x[i] = xi ^ t
		}
		x0 ^= p & -(x0 >> lvl & 1)
	}
	x[0] = x0
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
