package sfc

import "fmt"

// BoxVolume returns the number of grid cells in the axis-aligned box
// [lo, hi] (inclusive corners), or 0 if the box is empty. The result
// saturates at 1<<62 to avoid overflow on pathological boxes.
func BoxVolume(lo, hi Point) uint64 {
	if len(lo) != len(hi) {
		panic(fmt.Sprintf("sfc: BoxVolume corners have dims %d and %d", len(lo), len(hi)))
	}
	const cap = uint64(1) << 62
	vol := uint64(1)
	for i := range lo {
		if hi[i] < lo[i] {
			return 0
		}
		side := uint64(hi[i]-lo[i]) + 1
		if vol > cap/side {
			return cap
		}
		vol *= side
	}
	return vol
}

// Contains reports whether point p lies in the inclusive box [lo, hi].
func Contains(lo, hi, p Point) bool {
	for i := range p {
		if p[i] < lo[i] || p[i] > hi[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether the inclusive boxes [alo, ahi] and [blo, bhi]
// overlap.
func Intersects(alo, ahi, blo, bhi Point) bool {
	for i := range alo {
		if ahi[i] < blo[i] || bhi[i] < alo[i] {
			return false
		}
	}
	return true
}

// IntersectBox writes the intersection of [alo, ahi] and [blo, bhi] into
// (olo, ohi) and reports whether it is non-empty.
func IntersectBox(alo, ahi, blo, bhi, olo, ohi Point) bool {
	for i := range alo {
		lo, hi := alo[i], ahi[i]
		if blo[i] > lo {
			lo = blo[i]
		}
		if bhi[i] < hi {
			hi = bhi[i]
		}
		if hi < lo {
			return false
		}
		olo[i], ohi[i] = lo, hi
	}
	return true
}
