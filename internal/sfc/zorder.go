package sfc

// zorderCurve is the Z-order (Morton) curve: plain bit interleaving with
// dimension 0 holding the most significant bit of each level. Unlike the
// Hilbert curve it is coordinatewise monotone — if p[i] <= q[i] for all i
// then Encode(p) <= Encode(q) — the property Lemma 6 of the paper exploits
// for similarity joins.
type zorderCurve struct {
	dims, bits int
	pack       packTable
}

func (z *zorderCurve) Dims() int    { return z.dims }
func (z *zorderCurve) Bits() int    { return z.bits }
func (z *zorderCurve) Name() string { return "zorder" }

// Encode maps a grid point to its Z-order key.
func (z *zorderCurve) Encode(p Point) uint64 {
	checkPoint(z, p)
	return z.pack.key(Pack(p, z.bits))
}

// EncodeCell implements Curve.
func (z *zorderCurve) EncodeCell(cell uint64) uint64 { return z.pack.key(cell) }

var _ Curve = (*zorderCurve)(nil)
