package metric

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Vector32 is a fixed-dimension real-valued object stored at float32
// precision — half the RAF payload and half the verify-stage memory traffic
// of Vector. LpNorm and LInf accept both kinds (never mixed within one
// space).
//
// Distance semantics are exact, not approximate: every kernel widens each
// float32 coordinate to float64 before subtracting, so the distance between
// two Vector32 objects is the *exact* float64 Lp distance over the widened
// coordinates, deterministic across kernels and worker counts. The only
// difference from a float64 dataset is the one-time rounding of each
// coordinate to float32 when the object is created: a normal coordinate c
// moves by at most |c|·2⁻²⁴, and since the Lp metrics are 1-Lipschitz in each
// argument, |d(a₃₂,b₃₂) − d(a₆₄,b₆₄)| ≤ d(a₃₂,a₆₄) + d(b₃₂,b₆₄) ≤
// 2·Dim^(1/p)·maxᵢ|cᵢ|·2⁻²⁴. FuzzFloat32Roundtrip enforces this tolerance
// contract against the float64 reference; DESIGN.md §13 documents it.
type Vector32 struct {
	Id     uint64
	Coords []float32
}

// NewVector32 returns a float32 vector object with the given id and
// coordinates.
func NewVector32(id uint64, coords []float32) *Vector32 {
	return &Vector32{Id: id, Coords: coords}
}

// NewVector32From64 returns a float32 vector object with each coordinate
// rounded from float64 — the conversion whose per-coordinate error the
// tolerance contract above bounds.
func NewVector32From64(id uint64, coords []float64) *Vector32 {
	c := make([]float32, len(coords))
	for i, v := range coords {
		c[i] = float32(v)
	}
	return &Vector32{Id: id, Coords: c}
}

// ID returns the object identifier.
func (v *Vector32) ID() uint64 { return v.Id }

// AppendBinary appends the coordinates as little-endian float32 bits —
// 4 bytes per coordinate, half of Vector's encoding.
func (v *Vector32) AppendBinary(dst []byte) []byte {
	for _, c := range v.Coords {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(c))
	}
	return dst
}

// String implements fmt.Stringer.
func (v *Vector32) String() string {
	return fmt.Sprintf("Vector32(%d, dim=%d)", v.Id, len(v.Coords))
}

// Vector32Codec decodes Vector32 payloads of a known dimensionality.
type Vector32Codec struct {
	// Dim is the expected number of coordinates per vector.
	Dim int
}

// Decode implements Codec.
func (c Vector32Codec) Decode(id uint64, data []byte) (Object, error) {
	return c.DecodeInto(nil, id, data)
}

// DecodeInto implements SlotCodec, reusing a *Vector32 slot and its
// coordinate array.
func (c Vector32Codec) DecodeInto(slot Object, id uint64, data []byte) (Object, error) {
	if len(data) != 4*c.Dim {
		return nil, fmt.Errorf("metric: float32 vector payload is %d bytes, want %d (dim %d)", len(data), 4*c.Dim, c.Dim)
	}
	v, ok := slot.(*Vector32)
	if !ok {
		v = new(Vector32)
	}
	if cap(v.Coords) < c.Dim {
		v.Coords = make([]float32, c.Dim)
	}
	v.Id, v.Coords = id, v.Coords[:c.Dim]
	for i := range v.Coords {
		v.Coords[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
	}
	return v, nil
}

var _ SlotCodec = Vector32Codec{}
