package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spbtree/internal/metric"
	"spbtree/internal/sfc"
)

// cellMeets is the brute-force region reference: whether cell c's distance
// interval meets [lower, upper]. It works in the grid's own units, a
// distance over δ, where c covers [c, c] on an exact grid and [c, c+1)
// otherwise, so no floor, clamp or integer conversion enters it.
func cellMeets(tr *Tree, c uint32, lower, upper float64) bool {
	x := float64(c)
	if tr.exact {
		return lower <= upper && lower <= x && x <= upper
	}
	return lower <= upper && x <= upper/tr.delta && lower/tr.delta < x+1
}

// TestCellWindowMatchesMIND pins each window tested on packed cell words to
// a per-cell reference, at every bit width from 1 to 32 on exact (δ = 1) and
// continuous grids:
//   - setMIND's kNN window for a bound admits a cell exactly when
//     mindToCell(qvec, cell) ≤ bound (Lemma 3);
//   - rangeWindow's RR(q, r) admits it exactly when, in every dimension, the
//     cell's distance interval meets [d(q,p_i) − r, d(q,p_i) + r] (Lemma 1);
//   - joinWindow's region of an element in cell e at eps admits it exactly
//     when, in every dimension, its interval meets
//     [cellLower(e_i) − eps, cellUpper(e_i) + eps] (Lemma 5).
//
// Pivot distances run from −1e10 through the grid to 1e10, and bounds are 1,
// 0, d+, +Inf, below 0, random, and exactly on a cell's edge (and one ulp
// either side); cells are the grid's first and last, cells around each
// window edge, and random ones.
func TestCellWindowMatchesMIND(t *testing.T) {
	type grid struct {
		dims, bits int
		exact      bool
	}
	var grids []grid
	for bits := 1; bits <= 32; bits++ {
		for _, exact := range []bool{true, false} {
			for _, dims := range []int{1, min(3, 64/bits), min(5, 64/bits)} {
				if g := (grid{dims, bits, exact}); !slices.Contains(grids, g) {
					grids = append(grids, g)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(41))
	for _, g := range grids {
		t.Run(fmt.Sprintf("%dx%d/exact=%v", g.dims, g.bits, g.exact), func(t *testing.T) {
			maxCell := uint64(1)<<g.bits - 1
			tr := &Tree{bits: g.bits, exact: g.exact, delta: 1, pivots: make([]metric.Object, g.dims)}
			dPlus := float64(maxCell)
			if !g.exact {
				dPlus = []float64{1, 3.7, 1e6}[g.bits%3]
				tr.delta = dPlus / float64(maxCell)
			}
			extremes := []float64{6e9, -1e10, 1e10, -1, dPlus, 1.5 * dPlus}
			qvec := make([]float64, g.dims)
			cell, elem := make(sfc.Point, g.dims), make(sfc.Point, g.dims)
			// near returns a coordinate within two cells of c, the grid's first
			// or last cell, or one at random.
			near := func(c float64) uint32 {
				switch k := rng.Intn(8); {
				case k == 0:
					return 0
				case k == 1:
					return uint32(maxCell)
				case k == 2 || math.IsInf(c, 0) || math.IsNaN(c):
					return uint32(rng.Uint64() & maxCell)
				}
				x := math.Floor(c) + float64(rng.Intn(5)-2)
				return uint32(min(max(x, 0), float64(maxCell)))
			}
			var mindWin cellWindow
			checked, admitted := 0, 0
			for trial := 0; trial < 60; trial++ {
				for i := range qvec {
					switch {
					case trial < len(extremes):
						qvec[i] = extremes[trial]
					case rng.Intn(4) == 0:
						qvec[i] = extremes[rng.Intn(len(extremes))]
					default:
						qvec[i] = (rng.Float64()*1.2 - 0.1) * dPlus
					}
				}
				bounds := []float64{1, 0, dPlus, math.Inf(1), -1}
				for range 3 {
					bounds = append(bounds, rng.Float64()*dPlus*0.3)
				}
				for i := range qvec {
					c := uint32(rng.Uint64() & maxCell)
					for _, b := range []float64{tr.cellLower(c) - qvec[i], qvec[i] - tr.cellUpper(c)} {
						if b >= 0 {
							bounds = append(bounds, b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)))
						}
					}
				}
				for _, bound := range bounds {
					tr.setMIND(&mindWin, qvec, bound)
					rr := tr.rangeWindow(qvec, bound)
					for i, dq := range qvec {
						elem[i] = near(dq / tr.delta)
					}
					jw := tr.joinWindow(sfc.Pack(elem, g.bits), bound)
					for range 24 {
						for i, dq := range qvec {
							switch rng.Intn(3) {
							case 0:
								cell[i] = near((dq + bound) / tr.delta)
							case 1:
								cell[i] = near((dq - bound) / tr.delta)
							default:
								cell[i] = near(dq / tr.delta)
							}
						}
						word := sfc.Pack(cell, g.bits)
						want := tr.mindToCell(qvec, cell) <= bound
						if got := mindWin.admits(word); got != want {
							t.Fatalf("q=%v bound=%v cell=%v: kNN window admits %v, mindToCell = %v",
								qvec, bound, cell, got, tr.mindToCell(qvec, cell))
						}
						inRR := true
						for i, dq := range qvec {
							inRR = inRR && cellMeets(tr, cell[i], dq-bound, dq+bound)
						}
						if got := rr.admits(word); got != inRR {
							t.Fatalf("q=%v r=%v cell=%v: range window admits %v, Lemma 1 says %v",
								qvec, bound, cell, got, inRR)
						}
						checked++
						if want {
							admitted++
						}

						// The join window, on cells around the element's region.
						for i, e := range elem {
							switch rng.Intn(3) {
							case 0:
								cell[i] = near((tr.cellLower(e) - bound) / tr.delta)
							case 1:
								cell[i] = near((tr.cellUpper(e) + bound) / tr.delta)
							default:
								cell[i] = near(float64(e))
							}
						}
						inJoin := true
						for i, e := range elem {
							inJoin = inJoin && cellMeets(tr, cell[i], tr.cellLower(e)-bound, tr.cellUpper(e)+bound)
						}
						if got := jw.admits(sfc.Pack(cell, g.bits)); got != inJoin {
							t.Fatalf("element %v eps=%v cell=%v: join window admits %v, Lemma 5 says %v",
								elem, bound, cell, got, inJoin)
						}
					}
				}
			}
			// Both answers must have been exercised in volume.
			if admitted < checked/20 || checked-admitted < checked/20 {
				t.Fatalf("%d of %d cells admitted: the edges were not exercised", admitted, checked)
			}
		})
	}
}
