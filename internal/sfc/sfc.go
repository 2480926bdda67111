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
type Curve interface {
	// Dims returns the grid dimensionality.
	Dims() int
	// Bits returns the number of bits per dimension.
	Bits() int
	// Encode maps a point to its curve key. Coordinates must be < 1<<Bits.
	Encode(p Point) uint64
	// Decode fills p (which must have length Dims) with the coordinates of
	// the given key.
	Decode(key uint64, p Point)
	// DecodeBlock decodes every key in one call: the coordinates of keys[i]
	// land in out[i*Dims : (i+1)*Dims], exactly as Decode would fill them.
	// out must have length len(keys)*Dims. Traversals decode a whole leaf's
	// keys this way.
	DecodeBlock(keys []uint64, out []uint32)
	// Name returns "hilbert" or "zorder".
	Name() string
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
		return &hilbertCurve{dims: dims, bits: bits, tab: unpackTableFor(dims, bits), states: hilbertTableFor(dims)}
	case ZOrder:
		return &zorderCurve{dims: dims, bits: bits, tab: unpackTableFor(dims, bits)}
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
	limit := uint32(1) << c.Bits()
	for i, v := range p {
		if v >= limit {
			panic(fmt.Sprintf("sfc: coordinate %d = %d out of range [0, %d)", i, v, limit))
		}
	}
}

// unpackTable de-interleaves keys of one (dims, bits) grid a byte at a time:
// row j maps the value of key byte j to where its bits land, with dimension
// d's coordinate packed at bits [d*bits, (d+1)*bits) of the word — dims*bits
// ≤ 64, so a whole point fits. OR-ing one lookup per key byte replaces the
// dims*bits-iteration bit loop (two divisions per bit) on the per-entry path
// of every traversal. Key bits at or above dims*bits are ignored.
type unpackTable [][256]uint64

// unpackTables shares one table per (dims, bits) across every curve of the
// process (a forest's shards all use the same grid).
var unpackTables sync.Map

func unpackTableFor(dims, bits int) unpackTable {
	id := dims<<8 | bits
	if t, ok := unpackTables.Load(id); ok {
		return t.(unpackTable)
	}
	tab := make(unpackTable, (dims*bits+7)/8)
	for j := range tab {
		for v := 0; v < 256; v++ {
			for b := 0; b < 8 && 8*j+b < dims*bits; b++ {
				if v>>b&1 != 0 {
					pos := 8*j + b
					level, dim := pos/dims, dims-1-pos%dims
					tab[j][v] |= 1 << (dim*bits + level)
				}
			}
		}
	}
	t, _ := unpackTables.LoadOrStore(id, tab)
	return t.(unpackTable)
}

// deinterleave splits key into per-dimension coordinates: the bit at key
// position pos belongs to level pos/dims of dimension dims-1-pos%dims.
func (tab unpackTable) deinterleave(key uint64, x []uint32, bits int) {
	var packed uint64
	for j := range tab {
		packed |= tab[j][byte(key>>(8*j))]
	}
	mask := uint64(1)<<bits - 1
	for d := range x {
		x[d] = uint32(packed >> (d * bits) & mask)
	}
}
