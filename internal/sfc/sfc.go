// Package sfc implements the space-filling curves used by the SPB-tree's
// second mapping stage: the Hilbert curve (better clustering, used for
// similarity search) and the Z-order curve (coordinatewise monotone, required
// by the similarity-join algorithm's Lemma 6).
//
// A curve maps points of a dims-dimensional integer grid with bits bits per
// dimension to one-dimensional uint64 keys bijectively. dims*bits must be at
// most 64.
package sfc

import (
	"fmt"
	"sync"
)

// Point is a cell coordinate in the mapped vector space: Point[i] is the
// quantized distance of an object to pivot i.
type Point []uint32

// Curve is a bijection between grid points and one-dimensional keys.
//
// A point is also held as its cell word (Pack): dimension d's coordinate at
// bits [d·Bits, (d+1)·Bits) of a uint64. The cell word is what the B+-tree
// and the write-ahead log store; the key only orders it, so no caller maps a
// key back to its point.
type Curve interface {
	// Dims returns the grid dimensionality.
	Dims() int
	// Bits returns the number of bits per dimension.
	Bits() int
	// Encode maps a point to its curve key. Coordinates must be < 1<<Bits.
	Encode(p Point) uint64
	// EncodeCell returns the key of the point whose cell word is cell:
	// Encode of Unpack(cell). Cell bits at or above Dims·Bits are ignored.
	EncodeCell(cell uint64) uint64
	// Name returns "hilbert" or "zorder".
	Name() string
}

// Pack returns the cell word of p: p[d] at bits [d·bits, (d+1)·bits).
// Coordinates must be < 1<<bits and len(p)·bits ≤ 64.
func Pack(p Point, bits int) uint64 {
	var cell uint64
	for d, v := range p {
		cell |= uint64(v) << (d * bits)
	}
	return cell
}

// Unpack fills p with the coordinates of cell word cell, one shift and mask
// per dimension: the inverse of Pack.
func Unpack(cell uint64, bits int, p Point) {
	mask := uint64(1)<<bits - 1
	for d := range p {
		p[d] = uint32(cell >> (d * bits) & mask)
	}
}

// Kind selects a curve family.
type Kind int

const (
	// Hilbert selects the Hilbert curve.
	Hilbert Kind = iota
	// ZOrder selects the Z-order (Morton) curve.
	ZOrder
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Hilbert:
		return "hilbert"
	case ZOrder:
		return "zorder"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// New returns a curve of the given kind over a dims-dimensional grid with
// bits bits per dimension. It panics if the parameters do not fit in 64 bits
// or are non-positive.
func New(kind Kind, dims, bits int) Curve {
	validate(dims, bits)
	switch kind {
	case Hilbert:
		return &hilbertCurve{dims: dims, bits: bits, pack: packTableFor(dims, bits), fwd: hilbertTableFor(dims)}
	case ZOrder:
		return &zorderCurve{dims: dims, bits: bits, pack: packTableFor(dims, bits)}
	default:
		panic(fmt.Sprintf("sfc: unknown curve kind %d", kind))
	}
}

func validate(dims, bits int) {
	if dims <= 0 || bits <= 0 {
		panic(fmt.Sprintf("sfc: non-positive dims=%d bits=%d", dims, bits))
	}
	if dims*bits > 64 {
		panic(fmt.Sprintf("sfc: dims*bits = %d*%d exceeds 64", dims, bits))
	}
	if bits > 32 {
		panic(fmt.Sprintf("sfc: bits=%d exceeds 32 (Point is uint32)", bits))
	}
}

func checkPoint(c Curve, p Point) {
	if len(p) != c.Dims() {
		panic(fmt.Sprintf("sfc: point has %d dims, curve has %d", len(p), c.Dims()))
	}
	limit := uint64(1) << c.Bits()
	for i, v := range p {
		if uint64(v) >= limit {
			panic(fmt.Sprintf("sfc: coordinate %d = %d out of range [0, %d)", i, v, limit))
		}
	}
}

// packTable interleaves the cell words of one (dims, bits) grid a byte at a
// time: row j maps the value of cell byte j to where its bits land in the
// interleaved key, in which key bit pos is level pos/dims of dimension
// dims-1-pos%dims. OR-ing one lookup per cell byte replaces the
// dims*bits-iteration bit loop. Cell bits at or above dims*bits are ignored.
type packTable [][256]uint64

// packTables shares one table per (dims, bits) across every curve of the
// process (a forest's shards all use the same grid).
var packTables sync.Map

func packTableFor(dims, bits int) packTable {
	id := dims<<8 | bits
	if t, ok := packTables.Load(id); ok {
		return t.(packTable)
	}
	tab := make(packTable, (dims*bits+7)/8)
	for j := range tab {
		for v := 0; v < 256; v++ {
			for b := 0; b < 8 && 8*j+b < dims*bits; b++ {
				if v>>b&1 != 0 {
					dim, level := (8*j+b)/bits, (8*j+b)%bits
					tab[j][v] |= 1 << (level*dims + dims - 1 - dim)
				}
			}
		}
	}
	t, _ := packTables.LoadOrStore(id, tab)
	return t.(packTable)
}

// key returns the interleaved key of cell word cell.
func (tab packTable) key(cell uint64) uint64 {
	var key uint64
	for j := range tab {
		key |= tab[j][byte(cell>>(8*j))]
	}
	return key
}
