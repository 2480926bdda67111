package metric

import (
	"encoding/binary"
	"math"
	"runtime"
	"unsafe"
)

// vectorsInPlace reports whether a vector payload can be read as its
// coordinate array where it lies: the host keeps a number in memory least
// significant byte first, the order in which AppendBinary writes a vector's
// coordinates, and loads a float from any address, since a payload sits
// wherever its record does. Elsewhere Prepare binds vector metrics
// generically.
var vectorsInPlace = binary.NativeEndian.Uint16([]byte{1, 0}) == 1 &&
	(runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64" || runtime.GOARCH == "386" || runtime.GOARCH == "ppc64le")

// The kinds of fixedQuery: the metric and the layout of its payloads.
const (
	fixedLp64    = iota // an integer-order LpNorm over VectorCodec
	fixedLp32           // an integer-order LpNorm over Vector32Codec
	fixedInf64          // LInf over VectorCodec
	fixedInf32          // LInf over Vector32Codec
	fixedHamming        // Hamming over BitStringCodec
)

// fixedQuery is Prepare's in-place kernel for a fixed-width codec. It keeps
// its own copy of the query's payload, as AppendBinary wrote it, and views
// both that copy and each candidate's payload as what the codec would decode
// them to — float64 or float32 coordinates, or the signature's bytes — then
// calls the function DistanceAtMost calls on the decoded objects:
// LpNorm.atMost64 or atMost32, maxAbs64AtMost or maxAbs32AtMost,
// hammingAtMost. A view reads the very bits the codec would decode, so (d,
// within) is DistanceAtMost's bit for bit by construction, the unspecified d
// of a rejected candidate included, and no loop of kernels.go is written
// twice. An LpNorm's powered budget is derived again only when the threshold
// changes.
type fixedQuery struct {
	kind  int
	lp    LpNorm
	codec Codec     // for the error of a payload of the wrong size
	own   []byte    // the query's payload
	q64   []float64 // own viewed as coordinates, for fixedLp64 and fixedInf64
	q32   []float32 // own viewed as coordinates, for fixedLp32 and fixedInf32

	t, budget float64 // an LpNorm's last threshold and lp.budget(t)
}

// prepareFixed prepares prev, when it is a fixedQuery, or a new one for fn,
// codec and q. It returns nil when they have no in-place kernel: fn is not an
// integer-order LpNorm, LInf or Hamming over its fixed-width codec, a vector
// payload is not readable in place on this host (vectorsInPlace), or q is
// not an object of the codec's kind and size — the generic binding then
// fails on it exactly as DistanceAtMost does.
func prepareFixed(fn DistanceFunc, codec Codec, q Object, prev PreparedQuery) *fixedQuery {
	kind := -1
	var lp LpNorm
	switch f := fn.(type) {
	case LpNorm:
		if _, ok := f.intP(); !ok {
			return nil
		}
		lp = f
		switch c := codec.(type) {
		case VectorCodec:
			if v, ok := q.(*Vector); ok && len(v.Coords) == c.Dim {
				kind = fixedLp64
			}
		case Vector32Codec:
			if v, ok := q.(*Vector32); ok && len(v.Coords) == c.Dim {
				kind = fixedLp32
			}
		}
	case LInf:
		switch c := codec.(type) {
		case VectorCodec:
			if v, ok := q.(*Vector); ok && len(v.Coords) == c.Dim {
				kind = fixedInf64
			}
		case Vector32Codec:
			if v, ok := q.(*Vector32); ok && len(v.Coords) == c.Dim {
				kind = fixedInf32
			}
		}
	case Hamming:
		if c, ok := codec.(BitStringCodec); ok {
			if b, ok := q.(*BitString); ok && len(b.Bits) == c.Bytes {
				kind = fixedHamming
			}
		}
	}
	if kind < 0 || kind != fixedHamming && !vectorsInPlace {
		return nil
	}
	k, _ := prev.(*fixedQuery)
	if k == nil {
		k = new(fixedQuery)
	}
	k.kind, k.lp, k.codec, k.t = kind, lp, codec, math.NaN()
	k.own = q.AppendBinary(k.own[:0])
	k.q64, k.q32 = nil, nil
	switch kind {
	case fixedLp64, fixedInf64:
		k.q64 = floats64(k.own)
	case fixedLp32, fixedInf32:
		k.q32 = floats32(k.own)
	}
	return k
}

// PayloadAtMost implements PreparedQuery on the payload in place.
func (k *fixedQuery) PayloadAtMost(_ Object, id uint64, payload []byte, _ Object, t float64) (float64, bool, Object, error) {
	if len(payload) != len(k.own) {
		_, err := k.codec.Decode(id, payload) // the codec's error for the size
		return 0, false, nil, err
	}
	var d float64
	var within bool
	switch k.kind {
	case fixedHamming:
		d, within = hammingAtMost(k.own, payload, t)
	case fixedInf64:
		d, within = maxAbs64AtMost(k.q64, floats64(payload), t)
	case fixedInf32:
		d, within = maxAbs32AtMost(k.q32, floats32(payload), t)
	default:
		if t < 0 {
			return 0, false, nil, nil // LpNorm.DistanceAtMost's answer
		}
		if t != k.t {
			k.t, k.budget = t, k.lp.budget(t)
		}
		if k.kind == fixedLp64 {
			d, within = k.lp.atMost64(k.q64, floats64(payload), t, k.budget)
		} else {
			d, within = k.lp.atMost32(k.q32, floats32(payload), t, k.budget)
		}
	}
	return d, within, nil, nil
}

// floats64 views a VectorCodec payload as the coordinates it encodes, which
// it is where vectorsInPlace holds. The view need not be aligned: float64
// holds no pointers, so the runtime's pointer checks allow it, and the host
// loads from any address.
func floats64(b []byte) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8)
}

// floats32 views a Vector32Codec payload as its coordinates; see floats64.
func floats32(b []byte) []float32 {
	return unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/4)
}
