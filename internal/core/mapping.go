package core

import (
	"fmt"
	"math"

	"spbtree/internal/metric"
	"spbtree/internal/sfc"
)

// phi fills vec with the raw pivot distances ⟨d(o,p_1), …, d(o,p_n)⟩ — the
// first mapping stage of the paper's Fig. 1.
func (t *Tree) phi(o metric.Object, vec []float64) {
	for i, p := range t.pivots {
		vec[i] = t.dist.Distance(o, p)
	}
}

// validateVec rejects objects whose pivot distances exceed the metric's
// declared d+. Such distances would quantize into clamped cells that
// under-represent them, silently breaking the lower-bound property every
// pruning lemma rests on — a configuration error (e.g. EditDistance.MaxLen
// smaller than the longest string) that must fail loudly at indexing time.
func (t *Tree) validateVec(o metric.Object, vec []float64) error {
	limit := t.dPlus * (1 + 1e-9)
	for i, d := range vec {
		if d > limit {
			return fmt.Errorf("core: object %d is at distance %g from pivot %d, beyond the metric's MaxDistance %g — fix the DistanceFunc configuration",
				o.ID(), d, i, t.dPlus)
		}
	}
	return nil
}

// cellOf quantizes a raw distance into its δ-cell, clamped to the grid.
func (t *Tree) cellOf(d float64) uint32 {
	if d < 0 {
		d = 0
	}
	c := uint64(math.Floor(d / t.delta))
	if max := uint64(1)<<t.bits - 1; c > max {
		c = max
	}
	return uint32(c)
}

// cells quantizes a raw distance vector into grid coordinates.
func (t *Tree) cells(vec []float64, out sfc.Point) {
	for i, d := range vec {
		out[i] = t.cellOf(d)
	}
}

// cellLower returns the smallest distance a cell can represent.
func (t *Tree) cellLower(c uint32) float64 { return float64(c) * t.delta }

// cellUpper returns the largest distance a cell can represent. For exact
// (discrete, δ=1) grids, the cell is the distance itself; otherwise the cell
// covers [cδ, (c+1)δ). c+1 is taken in 64 bits: the last cell of a 32-bit
// grid has an upper end too.
func (t *Tree) cellUpper(c uint32) float64 {
	if t.exact {
		return float64(c)
	}
	return float64(uint64(c)+1) * t.delta
}

// cellSpan returns the cells of one dimension whose distance interval meets
// [lower, upper], clamped to the grid, as its first and last cell lo and hi:
// on an exact grid the cells c with
// lower ≤ c ≤ upper, otherwise those with ⌊lower/δ⌋ ≤ c ≤ ⌊upper/δ⌋, the
// cells [cδ, (c+1)δ) that meet the interval. The ends are rounded and clamped
// as floats and converted only once inside the grid, so a distance beyond the
// grid, a negative one or an infinite one cannot wrap. ok is false when no
// cell qualifies: the interval lies beyond the grid on either side, is empty
// or has a NaN end.
func (t *Tree) cellSpan(lower, upper float64) (lo, hi uint64, ok bool) {
	if !(lower <= upper) {
		return 0, 0, false
	}
	if t.exact {
		lower, upper = math.Ceil(lower), math.Floor(upper)
	} else {
		lower, upper = math.Floor(lower/t.delta), math.Floor(upper/t.delta)
	}
	lower, upper = max(lower, 0), min(upper, float64(uint64(1)<<t.bits-1))
	if !(lower <= upper) {
		return 0, 0, false
	}
	return uint64(lower), uint64(upper), true
}

// rangeWindow returns the mapped range region RR(q, r) of Lemma 1 as a
// window: dimension i spans every cell whose distance interval meets
// [d(q,p_i) − r, d(q,p_i) + r].
func (t *Tree) rangeWindow(qvec []float64, r float64) cellWindow {
	w := t.window()
	for i, dq := range qvec {
		lo, hi, ok := t.cellSpan(dq-r, dq+r)
		if !ok {
			return t.emptyWindow()
		}
		w.set(i, lo, hi)
	}
	return w
}

// mindToCell returns the L∞ lower bound MIND between the query (raw pivot
// distances qvec) and an object quantized to cell point p — the per-entry
// pruning distance of Algorithm 2.
func (t *Tree) mindToCell(qvec []float64, p sfc.Point) float64 {
	var m float64
	for i, dq := range qvec {
		lb := t.cellLower(p[i]) - dq
		if ub := dq - t.cellUpper(p[i]); ub > lb {
			lb = ub
		}
		if lb > m {
			m = lb
		}
	}
	return m
}

// mindToBox returns the L∞ lower bound MIND between the query and a node
// MBB [lo, hi] in cell space — Lemma 3's pruning distance.
func (t *Tree) mindToBox(qvec []float64, lo, hi sfc.Point) float64 {
	var m float64
	for i, dq := range qvec {
		lb := t.cellLower(lo[i]) - dq
		if ub := dq - t.cellUpper(hi[i]); ub > lb {
			lb = ub
		}
		if lb > m {
			m = lb
		}
	}
	return m
}

// lemma2Bound checks the verification-free inclusion of Lemma 2: if some
// pivot p_i has d(o,p_i) ≤ r − d(q,p_i), the triangle inequality proves
// d(q,o) ≤ r without computing it. Only the quantized upper bound of
// d(o,p_i) is known, which keeps the test conservative (and exact for
// discrete metrics). It returns the proved upper bound and whether the
// lemma applies.
func (t *Tree) lemma2Bound(qvec []float64, p sfc.Point, r float64) (float64, bool) {
	for i, dq := range qvec {
		if ub := t.cellUpper(p[i]); ub <= r-dq {
			return dq + ub, true
		}
	}
	return 0, false
}

// cellWindow is a box in cell space that is tested on packed cell words
// (sfc.Pack): its corners lo and hi are packed the same way, which fits
// because dims × bits ≤ 64 holds for every stored cell, so a window is a
// value. A word is inside when each of its coordinates lies between the
// corners' — one mask and two compares per dimension, made where the
// coordinate sits in the word, so nothing is shifted but the mask. An empty
// window has lo above hi in its first dimension, which no coordinate lies
// between.
type cellWindow struct {
	lo, hi     uint64
	dims, bits uint8
}

// window returns a window of the tree's grid whose dimensions are all still
// to be set.
func (t *Tree) window() cellWindow {
	return cellWindow{dims: uint8(len(t.pivots)), bits: uint8(t.bits)}
}

// emptyWindow returns the window of the tree's grid that admits no cell.
func (t *Tree) emptyWindow() cellWindow {
	w := t.window()
	w.lo = uint64(1)<<t.bits - 1 // the first dimension's last cell; hi is 0
	return w
}

// set makes dimension d, still unset, span the cells lo through hi.
func (w *cellWindow) set(d int, lo, hi uint64) {
	shift := uint(d) * uint(w.bits)
	w.lo |= lo << shift
	w.hi |= hi << shift
}

// empty reports whether w admits no cell.
func (w *cellWindow) empty() bool {
	mask := uint64(1)<<w.bits - 1
	return w.lo&mask > w.hi&mask
}

// admits reports whether the cell whose word is cell lies in w.
func (w *cellWindow) admits(cell uint64) bool {
	mask := uint64(1)<<w.bits - 1
	for range w.dims {
		if c := cell & mask; c < w.lo&mask || c > w.hi&mask {
			return false
		}
		mask <<= w.bits
	}
	return true
}

// meets reports whether w, which is not empty, and the box with packed
// corners boxLo and boxHi share a cell — Lemma 1's node test.
func (w *cellWindow) meets(boxLo, boxHi uint64) bool {
	mask := uint64(1)<<w.bits - 1
	for range w.dims {
		if boxHi&mask < w.lo&mask || boxLo&mask > w.hi&mask {
			return false
		}
		mask <<= w.bits
	}
	return true
}

// setMIND sets w to the cells whose MIND to the query (raw pivot distances
// qvec) is within bound — Lemma 3's entry test as a box:
// w.admits(Pack(c)) ⇔ t.mindToCell(qvec, c) ≤ bound. MIND is at least 0,
// and dimension i keeps c exactly when cellLower(c) − dq ≤ bound and
// dq − cellUpper(c) ≤ bound, mindToCell's own float expressions. The first
// never decreases as c grows and the second never increases, so each bounds
// c on one side. cellSpan of [dq − bound − δ, dq + bound] clamps the guess to
// the grid: the extra cell below covers the second test's closed edge, and
// a dimension it finds empty keeps no cell. The guess is then settled by
// evaluating the expressions themselves on both sides of it, so rounding
// cannot make the window and the float test disagree.
func (t *Tree) setMIND(w *cellWindow, qvec []float64, bound float64) {
	if !(bound >= 0) {
		*w = t.emptyWindow()
		return
	}
	*w = t.window()
	maxCell := int64(1)<<t.bits - 1
	for i, dq := range qvec {
		lo64, hi64, ok := t.cellSpan(dq-bound-t.delta, dq+bound)
		if !ok {
			*w = t.emptyWindow()
			return
		}
		lo, hi := int64(lo64), int64(hi64)
		// hi: the last cell with cellLower(c) − dq ≤ bound.
		for hi >= 0 && t.cellLower(uint32(hi))-dq > bound {
			hi--
		}
		for hi < maxCell && t.cellLower(uint32(hi+1))-dq <= bound {
			hi++
		}
		// lo: the first cell with dq − cellUpper(c) ≤ bound.
		for lo <= maxCell && dq-t.cellUpper(uint32(lo)) > bound {
			lo++
		}
		for lo > 0 && dq-t.cellUpper(uint32(lo-1)) <= bound {
			lo--
		}
		if lo > hi {
			*w = t.emptyWindow()
			return
		}
		w.set(i, uint64(lo), uint64(hi))
	}
}
