package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spbtree/internal/sfc"
)

// TestCellWindowMatchesMIND pins the packed-word entry tests to the float
// tests they replace. The kNN window setMIND builds for a bound must admit a
// cell exactly when mindToCell(qvec, cell) ≤ bound, and the box window of the
// range region exactly when sfc.Contains does — on exact (δ = 1) and
// continuous grids up to one 32-bit dimension, for bounds of 0, +Inf, below
// 0, random, and exactly on a cell's edge (and one ulp either side), with
// cells drawn at random and around each dimension's window edges.
func TestCellWindowMatchesMIND(t *testing.T) {
	grids := []struct {
		dims, bits int
		exact      bool
		dPlus      float64
	}{
		{5, 6, true, 34},
		{3, 8, true, 255},
		{1, 32, true, math.MaxUint32},
		{5, 8, false, 1},
		{4, 16, false, 3.7},
		{2, 32, false, 1},
		{1, 32, false, 1e6},
	}
	rng := rand.New(rand.NewSource(40))
	for _, g := range grids {
		t.Run(fmt.Sprintf("%dx%d/exact=%v", g.dims, g.bits, g.exact), func(t *testing.T) {
			tr := &Tree{bits: g.bits, exact: g.exact, delta: 1}
			maxCell := uint64(1)<<g.bits - 1
			if !g.exact {
				tr.delta = g.dPlus / float64(maxCell)
			}
			var w, rr cellWindow
			w.size(g.dims, g.bits)
			rr.size(g.dims, g.bits)
			qvec := make([]float64, g.dims)
			cell := make(sfc.Point, g.dims)
			rrLo, rrHi := make(sfc.Point, g.dims), make(sfc.Point, g.dims)
			// near returns a coordinate within two cells of c, or at random.
			near := func(c float64) uint32 {
				if rng.Intn(3) == 0 || math.IsInf(c, 0) || math.IsNaN(c) {
					return uint32(rng.Uint64() & maxCell)
				}
				x := math.Floor(c) + float64(rng.Intn(5)-2)
				return uint32(min(max(x, 0), float64(maxCell)))
			}
			checked, admitted := 0, 0
			for trial := 0; trial < 400; trial++ {
				for i := range qvec {
					qvec[i] = rng.Float64() * g.dPlus * 1.05
				}
				var bounds []float64
				for range 3 {
					bounds = append(bounds, rng.Float64()*g.dPlus*0.3)
				}
				for i := range qvec {
					c := uint32(rng.Uint64() & maxCell)
					for _, b := range []float64{tr.cellLower(c) - qvec[i], qvec[i] - tr.cellUpper(c)} {
						if b >= 0 {
							bounds = append(bounds, b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)))
						}
					}
				}
				bounds = append(bounds, 0, math.Inf(1), -1)
				for _, bound := range bounds {
					tr.setMIND(&w, qvec, bound)
					tr.rangeRegion(qvec, bound, rrLo, rrHi)
					if bound >= 0 {
						rr.setBox(rrLo, rrHi)
					}
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
						if got := w.admits(word); got != want {
							t.Fatalf("q=%v bound=%v cell=%v: window admits %v, mindToCell = %v",
								qvec, bound, cell, got, tr.mindToCell(qvec, cell))
						}
						if bound >= 0 {
							if got, want := rr.admits(word), sfc.Contains(rrLo, rrHi, cell); got != want {
								t.Fatalf("q=%v r=%v cell=%v: range window admits %v, Contains %v (RR %v..%v)",
									qvec, bound, cell, got, want, rrLo, rrHi)
							}
						}
						checked++
						if want {
							admitted++
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
