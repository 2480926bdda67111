package sfc

// zorderCurve is the Z-order (Morton) curve: plain bit interleaving with
// dimension 0 holding the most significant bit of each level. Unlike the
// Hilbert curve it is coordinatewise monotone — if p[i] <= q[i] for all i
// then Encode(p) <= Encode(q) — the property Lemma 6 of the paper exploits
// for similarity joins.
type zorderCurve struct {
	dims, bits int
	tab        unpackTable
}

func (z *zorderCurve) Dims() int    { return z.dims }
func (z *zorderCurve) Bits() int    { return z.bits }
func (z *zorderCurve) Name() string { return "zorder" }

// Encode maps a grid point to its Z-order key.
func (z *zorderCurve) Encode(p Point) uint64 {
	checkPoint(z, p)
	var key uint64
	for l := z.bits - 1; l >= 0; l-- {
		for i := 0; i < z.dims; i++ {
			key = key<<1 | uint64((p[i]>>l)&1)
		}
	}
	return key
}

// Decode fills p with the coordinates of key.
func (z *zorderCurve) Decode(key uint64, p Point) {
	if len(p) != z.dims {
		panic("sfc: Decode point has wrong dimensionality")
	}
	z.tab.deinterleave(key, p, z.bits)
}

// DecodeBlock implements Curve.
func (z *zorderCurve) DecodeBlock(keys []uint64, out []uint32) {
	if len(out) != len(keys)*z.dims {
		panic("sfc: DecodeBlock output has wrong length")
	}
	for i, key := range keys {
		z.tab.deinterleave(key, out[i*z.dims:(i+1)*z.dims], z.bits)
	}
}

var _ Curve = (*zorderCurve)(nil)
