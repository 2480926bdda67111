package sfc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func curvesUnderTest() []Curve {
	return []Curve{
		New(Hilbert, 2, 1), New(Hilbert, 2, 4), New(Hilbert, 3, 5),
		New(Hilbert, 5, 8), New(Hilbert, 9, 7),
		New(ZOrder, 2, 1), New(ZOrder, 2, 4), New(ZOrder, 3, 5),
		New(ZOrder, 5, 8), New(ZOrder, 9, 7),
	}
}

// TestEncodeDecodeRoundTrip requires the reference decode (refDecode) to
// invert Encode on random points.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range curvesUnderTest() {
		limit := uint32(1) << c.Bits()
		p := make(Point, c.Dims())
		q := make(Point, c.Dims())
		for trial := 0; trial < 500; trial++ {
			for i := range p {
				p[i] = rng.Uint32() % limit
			}
			key := c.Encode(p)
			if max := uint64(1) << (c.Dims() * c.Bits()); key >= max {
				t.Fatalf("%s(%d,%d): key %d out of range %d", c.Name(), c.Dims(), c.Bits(), key, max)
			}
			refDecode(c, key, q)
			for i := range p {
				if p[i] != q[i] {
					t.Fatalf("%s(%d,%d): round trip %v -> %d -> %v", c.Name(), c.Dims(), c.Bits(), p, key, q)
				}
			}
		}
	}
}

func TestBijectionExhaustive(t *testing.T) {
	// Small grids: every cell word must encode to a distinct in-range key
	// that the reference decode maps back to the cell's point.
	for _, c := range []Curve{New(Hilbert, 2, 3), New(ZOrder, 2, 3), New(Hilbert, 3, 2), New(ZOrder, 3, 2)} {
		total := uint64(1) << (c.Dims() * c.Bits())
		seen := make([]bool, total)
		p := make(Point, c.Dims())
		for cell := uint64(0); cell < total; cell++ {
			key := c.EncodeCell(cell)
			if key >= total || seen[key] {
				t.Fatalf("%s: cell %#x encodes to key %d, out of range or already taken", c.Name(), cell, key)
			}
			seen[key] = true
			refDecode(c, key, p)
			if Pack(p, c.Bits()) != cell {
				t.Fatalf("%s: key %d of cell %#x decodes to %v", c.Name(), key, cell, p)
			}
		}
	}
}

// cellsInKeyOrder lists every cell word of c's grid in key order.
func cellsInKeyOrder(c Curve) []uint64 {
	total := uint64(1) << (c.Dims() * c.Bits())
	cells := make([]uint64, total)
	for cell := uint64(0); cell < total; cell++ {
		cells[c.EncodeCell(cell)] = cell
	}
	return cells
}

func TestHilbertAdjacency(t *testing.T) {
	// The defining property of the Hilbert curve: consecutive keys map to
	// grid cells at L1 distance exactly 1.
	for _, c := range []Curve{New(Hilbert, 2, 4), New(Hilbert, 3, 3), New(Hilbert, 4, 3)} {
		cells := cellsInKeyOrder(c)
		prev := make(Point, c.Dims())
		cur := make(Point, c.Dims())
		Unpack(cells[0], c.Bits(), prev)
		for key := 1; key < len(cells); key++ {
			Unpack(cells[key], c.Bits(), cur)
			dist := 0
			for i := range cur {
				d := int(cur[i]) - int(prev[i])
				if d < 0 {
					d = -d
				}
				dist += d
			}
			if dist != 1 {
				t.Fatalf("hilbert(%d,%d): keys %d and %d map to cells at L1 distance %d: %v -> %v",
					c.Dims(), c.Bits(), key-1, key, dist, prev, cur)
			}
			copy(prev, cur)
		}
	}
}

func TestHilbert2DKnownOrder(t *testing.T) {
	// The canonical 2x2 Hilbert curve visits (0,0),(0,1),(1,1),(1,0) or a
	// rotation/reflection of it; with Skilling's convention and dim0 as the
	// most significant interleave position the first cell is always (0,0).
	c := New(Hilbert, 2, 1)
	cells := cellsInKeyOrder(c)
	p := make(Point, 2)
	Unpack(cells[0], 1, p)
	if p[0] != 0 || p[1] != 0 {
		t.Errorf("hilbert key 0 = %v, want (0,0)", p)
	}
	Unpack(cells[3], 1, p)
	if p[0]+p[1] != 1 {
		t.Errorf("hilbert key 3 = %v, want a corner adjacent to (0,0)", p)
	}
}

func TestZOrderKnownValues(t *testing.T) {
	c := New(ZOrder, 2, 2)
	// Z-order with dim0 most significant: key = interleave(x1 bits into odd,
	// x0 bits into even positions counting from MSB).
	cases := []struct {
		p   Point
		key uint64
	}{
		{Point{0, 0}, 0},
		{Point{0, 1}, 1},
		{Point{1, 0}, 2},
		{Point{1, 1}, 3},
		{Point{2, 0}, 8},
		{Point{3, 3}, 15},
	}
	for _, tc := range cases {
		if got := c.Encode(tc.p); got != tc.key {
			t.Errorf("zorder Encode(%v) = %d, want %d", tc.p, got, tc.key)
		}
	}
}

func TestZOrderMonotonicity(t *testing.T) {
	// Lemma 6's requirement: coordinatewise dominance implies key order.
	c := New(ZOrder, 4, 6)
	f := func(a, b [4]uint16) bool {
		p := make(Point, 4)
		q := make(Point, 4)
		for i := 0; i < 4; i++ {
			p[i] = uint32(a[i]) % 64
			q[i] = uint32(b[i]) % 64
			if q[i] < p[i] {
				p[i], q[i] = q[i], p[i]
			}
		}
		return c.Encode(p) <= c.Encode(q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHilbertClusteringBeatsZOrder(t *testing.T) {
	// The paper's Table 4 premise: the Hilbert curve clusters query regions
	// into fewer contiguous key runs than the Z-curve (Moon et al., "Analysis
	// of the clustering properties of the Hilbert space-filling curve").
	// Fewer runs mean fewer disk seeks for the same mapped range region.
	h := New(Hilbert, 2, 6)
	z := New(ZOrder, 2, 6)
	rng := rand.New(rand.NewSource(21))
	runs := func(c Curve, lo, hi Point) int {
		var keys []uint64
		for x := lo[0]; x <= hi[0]; x++ {
			for y := lo[1]; y <= hi[1]; y++ {
				keys = append(keys, c.Encode(Point{x, y}))
			}
		}
		slices.Sort(keys)
		n := 1
		for i := 1; i < len(keys); i++ {
			if keys[i] != keys[i-1]+1 {
				n++
			}
		}
		return n
	}
	var hr, zr int
	for trial := 0; trial < 200; trial++ {
		x := rng.Uint32() % 48
		y := rng.Uint32() % 48
		w := 2 + rng.Uint32()%14
		lo := Point{x, y}
		hi := Point{x + w, y + w}
		hr += runs(h, lo, hi)
		zr += runs(z, lo, hi)
	}
	if hr >= zr {
		t.Errorf("hilbert total runs %d should beat zorder %d", hr, zr)
	}
}

func TestNewValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { New(Hilbert, 0, 4) },
		func() { New(Hilbert, 5, 0) },
		func() { New(ZOrder, 9, 8) },   // 72 bits
		func() { New(Hilbert, 1, 40) }, // > 32 bits/dim
		func() { New(Kind(99), 2, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestEncodePanicsOutOfRange(t *testing.T) {
	c := New(Hilbert, 2, 3)
	defer func() {
		if recover() == nil {
			t.Error("Encode accepted out-of-range coordinate")
		}
	}()
	c.Encode(Point{8, 0})
}

// refDeinterleave is the bit-by-bit inverse of the key interleave: key bit
// pos is level pos/n of dimension n-1-pos%n.
func refDeinterleave(key uint64, x []uint32, b int) {
	n := len(x)
	clear(x)
	for pos := n*b - 1; pos >= 0; pos-- {
		x[n-1-pos%n] |= uint32(key>>pos) & 1 << (pos / n)
	}
}

// refDecode is the reference inverse of c's encode: it fills p with the
// point whose key is key (bits at or above the key width ignored), through
// Skilling's transposeToAxes for the Hilbert curve.
func refDecode(c Curve, key uint64, p Point) {
	refDeinterleave(key, p, c.Bits())
	if c.Name() == "hilbert" {
		transposeToAxes(p, c.Bits())
	}
}

// transposeToAxes is Skilling's inverse of axesToTranspose: it converts
// the transposed Hilbert index in x (b bits each) back into coordinates in
// place.
func transposeToAxes(x []uint32, b int) {
	n := len(x)
	// Gray decode by H ^ (H/2).
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for lvl := 1; lvl < b; lvl++ {
		q := uint32(1) << lvl
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p // invert
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}

// TestEncodeMatchesReference checks Encode and EncodeCell against Skilling's
// axesToTranspose (Hilbert) and the bit interleave (both curves): on every
// cell of the 5 × 4 grid (2^20 cells, through the forward state table) and
// of every grid of at most 2^12 cells, and on random points of the larger
// grids — 5 × 12 among them — with garbage above the cell word's width.
func TestEncodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for dims := 1; dims <= 9; dims++ {
		for bits := 1; bits <= 64/dims && bits <= 32; bits++ {
			width := uint(dims * bits)
			for _, kind := range []Kind{Hilbert, ZOrder} {
				r := newRefChecker(t, New(kind, dims, bits))
				if width <= 12 || dims == 5 && bits == 4 {
					for cell := uint64(0); cell < 1<<width; cell++ {
						r.encode(cell)
					}
					continue
				}
				n := 500
				if dims == 5 && bits == 12 {
					n = 200000
				}
				r.encode(1<<width - 1)
				for i := 0; i < n; i++ {
					r.encode(rng.Uint64())
				}
			}
		}
	}
}

// TestHilbertTableRandomKeys runs 300 000 random cell words (garbage above
// the cell width included) per grid through the forward state table, at the
// benchmark grids and the widest grids of each small dimensionality.
func TestHilbertTableRandomKeys(t *testing.T) {
	n := 300000
	if testing.Short() {
		n = 20000
	}
	rng := rand.New(rand.NewSource(29))
	for _, g := range [][2]int{{5, 6}, {5, 8}, {5, 12}, {4, 16}, {3, 21}, {2, 32}, {1, 32}} {
		c := New(Hilbert, g[0], g[1])
		if c.(*hilbertCurve).fwd == nil {
			t.Fatalf("hilbert(%d,%d) runs without its state table", g[0], g[1])
		}
		r := newRefChecker(t, c)
		for i := 0; i < n; i++ {
			r.encode(rng.Uint64())
		}
	}
}

// TestHilbertTableSize pins the state table's footprint: dims! states ×
// 2^dims digits of 4 bytes, at most 16 KB at the largest tabled
// dimensionality, and no table above it.
func TestHilbertTableSize(t *testing.T) {
	fact := 1
	for dims := 1; dims <= maxTableDims; dims++ {
		fact *= dims
		if tab := hilbertTableFor(dims); len(tab) != fact<<dims {
			t.Errorf("dims %d: %d entries, want %d", dims, len(tab), fact<<dims)
		}
	}
	if tab := hilbertTableFor(maxTableDims); len(tab)*4 > 16<<10 {
		t.Errorf("dims %d: state table is %d bytes, want at most 16 KB", maxTableDims, len(tab)*4)
	}
	if tab := hilbertTableFor(maxTableDims + 1); tab != nil {
		t.Errorf("dims %d: got a state table, want Skilling's loop", maxTableDims+1)
	}
}

// refChecker compares a curve's encode with the bit-loop references, reusing
// its buffers across cells.
type refChecker struct {
	t         *testing.T
	c         Curve
	want, got Point
}

func newRefChecker(t *testing.T, c Curve) *refChecker {
	return &refChecker{t: t, c: c, want: make(Point, c.Dims()), got: make(Point, c.Dims())}
}

// encode requires EncodeCell(cell), and Encode of its unpacked point, to
// match the reference key of the point; cell bits at or above the cell
// word's width are garbage and must be ignored.
func (r *refChecker) encode(cell uint64) {
	r.t.Helper()
	c, p, x := r.c, r.got, r.want
	dims, bits := c.Dims(), c.Bits()
	Unpack(cell, bits, p)
	copy(x, p)
	if c.Name() == "hilbert" {
		axesToTranspose(x, bits)
	}
	want := interleave(x, bits)
	if got := c.EncodeCell(cell); got != want {
		r.t.Fatalf("%s(%d,%d) cell %#x: EncodeCell %#x, reference %#x", c.Name(), dims, bits, cell, got, want)
	}
	if got := c.Encode(p); got != want {
		r.t.Fatalf("%s(%d,%d) point %v: Encode %#x, reference %#x", c.Name(), dims, bits, p, got, want)
	}
}

// benchGrids are the two benchmark grids: 5 pivots × 6 bits (words) and
// 5 × 8 (color32).
var benchGrids = [][2]int{{5, 6}, {5, 8}}

// benchCurves returns a grid's Hilbert curve on its state table and on
// Skilling's loop.
func benchCurves(dims, bits int) []struct {
	name string
	h    *hilbertCurve
} {
	table := New(Hilbert, dims, bits).(*hilbertCurve)
	loop := *table
	loop.fwd = nil
	return []struct {
		name string
		h    *hilbertCurve
	}{{"table", table}, {"skilling", &loop}}
}

// BenchmarkEncode encodes a leaf's worth of random cell words at the
// benchmark grids, through the forward state table and through Skilling's
// loop, reporting ns per key.
func BenchmarkEncode(b *testing.B) {
	for _, g := range benchGrids {
		dims, bits := g[0], g[1]
		rng := rand.New(rand.NewSource(7))
		cells := make([]uint64, 256)
		for i := range cells {
			cells[i] = rng.Uint64() >> (64 - dims*bits)
		}
		for _, c := range benchCurves(dims, bits) {
			b.Run(fmt.Sprintf("%dx%d/%s", dims, bits, c.name), func(b *testing.B) {
				var sink uint64
				for i := 0; i < b.N; i++ {
					for _, cell := range cells {
						sink ^= c.h.EncodeCell(cell)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cells)), "ns/key")
				benchSink = sink
			})
		}
	}
}

var benchSink uint64
