package sfc

import "testing"

// FuzzRoundTrip checks key→point→key identity for both curves at arbitrary
// dimensionalities within the 64-bit budget: the reference decode's point
// is in range, and Encode and EncodeCell of it give the key back.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint8(2), uint8(4), false)
	f.Add(uint64(12345), uint8(5), uint8(8), true)
	f.Add(^uint64(0), uint8(9), uint8(7), false)
	f.Fuzz(func(t *testing.T, key uint64, dims, bits uint8, zorder bool) {
		d := int(dims%9) + 1
		b := int(bits%12) + 1
		if d*b > 64 {
			b = 64 / d
		}
		kind := Hilbert
		if zorder {
			kind = ZOrder
		}
		c := New(kind, d, b)
		key &= uint64(1)<<(d*b) - 1
		p := make(Point, d)
		refDecode(c, key, p)
		for i, v := range p {
			if v >= uint32(1)<<b {
				t.Fatalf("coordinate %d = %d out of range", i, v)
			}
		}
		if got := c.Encode(p); got != key {
			t.Fatalf("%s(%d,%d): Encode(refDecode(%d)) = %d", c.Name(), d, b, key, got)
		}
		if got := c.EncodeCell(Pack(p, b)); got != key {
			t.Fatalf("%s(%d,%d): EncodeCell(Pack(refDecode(%d))) = %d", c.Name(), d, b, key, got)
		}
	})
}
