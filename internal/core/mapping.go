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

// rangeRegion computes the mapped range region RR(q, r) of Lemma 1 in cell
// space: dimension i spans every cell whose distance interval intersects
// [d(q,p_i)−r, d(q,p_i)+r].
func (t *Tree) rangeRegion(qvec []float64, r float64, lo, hi sfc.Point) {
	maxCell := uint32(uint64(1)<<t.bits - 1)
	for i, dq := range qvec {
		lower := dq - r
		if lower < 0 {
			lower = 0
		}
		if t.exact {
			lo[i] = uint32(math.Ceil(lower))
		} else {
			lo[i] = t.cellOf(lower)
		}
		upper := dq + r
		c := uint64(math.Floor(upper / t.delta))
		if c > uint64(maxCell) {
			c = uint64(maxCell)
		}
		hi[i] = uint32(c)
		if lo[i] > maxCell {
			lo[i] = maxCell + 1 // empty dimension ⇒ empty region
		}
	}
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
// (sfc.Pack): a word is inside when each of its coordinates c satisfies
// c − lo[d] ≤ span[d] in uint64 arithmetic — one shift, mask and compare per
// dimension, since a coordinate below lo wraps past every span. Only the
// entries inside are unpacked. An empty window has lo[0] above every
// coordinate.
type cellWindow struct {
	bits     int
	lo, span []uint64
}

// size readies w for dims dimensions of bits bits each.
func (w *cellWindow) size(dims, bits int) {
	if len(w.lo) != dims {
		w.lo, w.span = make([]uint64, dims), make([]uint64, dims)
	}
	w.bits = bits
}

// admits reports whether the cell whose word is cell lies in w.
func (w *cellWindow) admits(cell uint64) bool {
	mask := uint64(1)<<w.bits - 1
	for d, lo := range w.lo {
		if cell&mask-lo > w.span[d] {
			return false
		}
		cell >>= w.bits
	}
	return true
}

// setEmpty makes w admit no cell.
func (w *cellWindow) setEmpty() {
	w.lo[0], w.span[0] = 1<<w.bits, 0
}

// setBox sets w to the inclusive box [lo, hi]: w.admits(Pack(c)) ⇔
// sfc.Contains(lo, hi, c).
func (w *cellWindow) setBox(lo, hi sfc.Point) {
	for d := range lo {
		if hi[d] < lo[d] {
			w.setEmpty()
			return
		}
		w.lo[d], w.span[d] = uint64(lo[d]), uint64(hi[d]-lo[d])
	}
}

// setMIND sets w to the cells whose MIND to the query (raw pivot distances
// qvec) is within bound — Lemma 3's entry test as a box:
// w.admits(Pack(c)) ⇔ t.mindToCell(qvec, c) ≤ bound. MIND is at least 0,
// and dimension i keeps c exactly when cellLower(c) − dq ≤ bound and
// dq − cellUpper(c) ≤ bound, mindToCell's own float expressions. The first
// never decreases as c grows and the second never increases, so each bounds
// c on one side; the bound is guessed by a division and then settled by
// evaluating the expression itself on both sides of it, so rounding cannot
// make the window and the float test disagree.
func (t *Tree) setMIND(w *cellWindow, qvec []float64, bound float64) {
	if !(bound >= 0) {
		w.setEmpty()
		return
	}
	maxCell := int64(1)<<t.bits - 1
	for i, dq := range qvec {
		hi := maxCell // the last cell with cellLower(c) − dq ≤ bound
		if x := (dq + bound) / t.delta; x < float64(maxCell) {
			hi = int64(x)
		}
		for hi >= 0 && t.cellLower(uint32(hi))-dq > bound {
			hi--
		}
		for hi < maxCell && t.cellLower(uint32(hi+1))-dq <= bound {
			hi++
		}
		lo := int64(0) // the first cell with dq − cellUpper(c) ≤ bound
		if x := (dq - bound) / t.delta; x > float64(maxCell) {
			lo = maxCell + 1
		} else if x > 1 {
			lo = int64(x) - 1
		}
		for lo <= maxCell && dq-t.cellUpper(uint32(lo)) > bound {
			lo++
		}
		for lo > 0 && dq-t.cellUpper(uint32(lo-1)) <= bound {
			lo--
		}
		if lo > hi {
			w.setEmpty()
			return
		}
		w.lo[i], w.span[i] = uint64(lo), uint64(hi-lo)
	}
}
