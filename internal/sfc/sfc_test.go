package sfc

import (
	"fmt"
	"math/rand"
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
			c.Decode(key, q)
			for i := range p {
				if p[i] != q[i] {
					t.Fatalf("%s(%d,%d): round trip %v -> %d -> %v", c.Name(), c.Dims(), c.Bits(), p, key, q)
				}
			}
		}
	}
}

func TestBijectionExhaustive(t *testing.T) {
	// Small grids: every key must decode to a distinct point that re-encodes
	// to the same key.
	for _, c := range []Curve{New(Hilbert, 2, 3), New(ZOrder, 2, 3), New(Hilbert, 3, 2), New(ZOrder, 3, 2)} {
		total := uint64(1) << (c.Dims() * c.Bits())
		seen := make(map[string]bool, total)
		p := make(Point, c.Dims())
		for key := uint64(0); key < total; key++ {
			c.Decode(key, p)
			sig := ""
			for _, v := range p {
				sig += string(rune(v)) + ","
			}
			if seen[sig] {
				t.Fatalf("%s: key %d decodes to duplicate point %v", c.Name(), key, p)
			}
			seen[sig] = true
			if got := c.Encode(p); got != key {
				t.Fatalf("%s: Encode(Decode(%d)) = %d", c.Name(), key, got)
			}
		}
	}
}

func TestHilbertAdjacency(t *testing.T) {
	// The defining property of the Hilbert curve: consecutive keys map to
	// grid cells at L1 distance exactly 1.
	for _, c := range []Curve{New(Hilbert, 2, 4), New(Hilbert, 3, 3), New(Hilbert, 4, 3)} {
		total := uint64(1) << (c.Dims() * c.Bits())
		prev := make(Point, c.Dims())
		cur := make(Point, c.Dims())
		c.Decode(0, prev)
		for key := uint64(1); key < total; key++ {
			c.Decode(key, cur)
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
	p := make(Point, 2)
	c.Decode(0, p)
	if p[0] != 0 || p[1] != 0 {
		t.Errorf("hilbert key 0 = %v, want (0,0)", p)
	}
	c.Decode(3, p)
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

func TestKeysInBox(t *testing.T) {
	for _, c := range []Curve{New(Hilbert, 2, 4), New(ZOrder, 2, 4)} {
		lo := Point{3, 5}
		hi := Point{6, 7}
		keys := KeysInBox(c, lo, hi, 1000)
		if len(keys) != 12 { // 4 * 3 cells
			t.Fatalf("%s: got %d keys, want 12", c.Name(), len(keys))
		}
		for i := 1; i < len(keys); i++ {
			if keys[i] <= keys[i-1] {
				t.Fatalf("%s: keys not strictly ascending at %d", c.Name(), i)
			}
		}
		// Every key decodes into the box; every box cell appears.
		p := make(Point, 2)
		for _, k := range keys {
			c.Decode(k, p)
			if !Contains(lo, hi, p) {
				t.Fatalf("%s: key %d decodes to %v outside box", c.Name(), k, p)
			}
		}
	}
}

func TestKeysInBoxLimit(t *testing.T) {
	c := New(Hilbert, 2, 4)
	if got := KeysInBox(c, Point{0, 0}, Point{15, 15}, 10); got != nil {
		t.Errorf("limit exceeded but got %d keys", len(got))
	}
	if got := KeysInBox(c, Point{5, 5}, Point{4, 4}, 100); got != nil {
		t.Errorf("empty box returned %d keys", len(got))
	}
	if got := KeysInBox(c, Point{5, 5}, Point{5, 5}, 100); len(got) != 1 {
		t.Errorf("single-cell box returned %d keys", len(got))
	}
}

func TestBoxVolume(t *testing.T) {
	if v := BoxVolume(Point{0, 0}, Point{3, 1}); v != 8 {
		t.Errorf("BoxVolume = %d, want 8", v)
	}
	if v := BoxVolume(Point{2}, Point{1}); v != 0 {
		t.Errorf("empty box volume = %d", v)
	}
	// Saturation instead of overflow.
	big := Point{^uint32(0), ^uint32(0)}
	if v := BoxVolume(Point{0, 0}, big); v != uint64(1)<<62 {
		t.Errorf("saturated volume = %d", v)
	}
}

func TestBoxPredicates(t *testing.T) {
	lo, hi := Point{2, 2}, Point{5, 5}
	if !Contains(lo, hi, Point{2, 5}) || Contains(lo, hi, Point{1, 3}) || Contains(lo, hi, Point{3, 6}) {
		t.Error("Contains is wrong")
	}
	if !Intersects(lo, hi, Point{5, 5}, Point{9, 9}) {
		t.Error("touching boxes should intersect")
	}
	if Intersects(lo, hi, Point{6, 0}, Point{9, 9}) {
		t.Error("disjoint boxes reported intersecting")
	}
	olo, ohi := make(Point, 2), make(Point, 2)
	if !IntersectBox(lo, hi, Point{4, 0}, Point{9, 3}, olo, ohi) {
		t.Fatal("IntersectBox reported empty for overlapping boxes")
	}
	if olo[0] != 4 || olo[1] != 2 || ohi[0] != 5 || ohi[1] != 3 {
		t.Errorf("IntersectBox = [%v, %v]", olo, ohi)
	}
	if IntersectBox(lo, hi, Point{6, 6}, Point{7, 7}, olo, ohi) {
		t.Error("IntersectBox reported non-empty for disjoint boxes")
	}
}

func TestMinDistLInf(t *testing.T) {
	lo, hi := Point{2, 2}, Point{5, 5}
	if d := MinDistLInf(lo, hi, Point{3, 4}); d != 0 {
		t.Errorf("inside point dist = %d", d)
	}
	if d := MinDistLInf(lo, hi, Point{0, 3}); d != 2 {
		t.Errorf("dist = %d, want 2", d)
	}
	if d := MinDistLInf(lo, hi, Point{9, 0}); d != 4 {
		t.Errorf("dist = %d, want 4", d)
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
		keys := KeysInBox(c, lo, hi, 1<<20)
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

// refDeinterleave is the bit-by-bit reference the byte lookup tables replace:
// key bit pos is level pos/n of dimension n-1-pos%n.
func refDeinterleave(key uint64, x []uint32, b int) {
	n := len(x)
	clear(x)
	for pos := n*b - 1; pos >= 0; pos-- {
		x[n-1-pos%n] |= uint32(key>>pos) & 1 << (pos / n)
	}
}

// TestDecodeBlockMatchesReference checks, for every grid of dims 1–9 × bits
// 1–⌊64/dims⌋ and both curves, that DecodeBlock and Decode agree with the
// bit-loop reference — Skilling's transposeToAxes for the Hilbert curve — on
// every key (grids of at most 2^12 cells, and 2^20 where dims ≤ 5 puts the
// Hilbert decode on its state table) or on edge keys plus a random sample
// with garbage above the key width (larger grids).
func TestDecodeBlockMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for dims := 1; dims <= 9; dims++ {
		for bits := 1; bits <= 64/dims && bits <= 32; bits++ {
			width := uint(dims * bits)
			for _, kind := range []Kind{Hilbert, ZOrder} {
				c := New(kind, dims, bits)
				if width <= 12 || dims <= maxTableDims && width <= 20 {
					keys := make([]uint64, 0, 1<<12)
					for k := uint64(0); k < 1<<width; k++ {
						if keys = append(keys, k); len(keys) == cap(keys) || k == 1<<width-1 {
							checkDecodeAgainstReference(t, c, keys)
							keys = keys[:0]
						}
					}
					continue
				}
				keys := []uint64{0, 1, 1<<width - 1, ^uint64(0), 0xAAAAAAAAAAAAAAAA, 0x5555555555555555}
				for i := 0; i < 500; i++ {
					keys = append(keys, rng.Uint64())
				}
				checkDecodeAgainstReference(t, c, keys)
			}
		}
	}
}

// TestHilbertTableRandomKeys runs 300 000 random keys (garbage above the key
// width included) through the state-table decoder at the benchmark grids and
// the widest grids of each small dimensionality.
func TestHilbertTableRandomKeys(t *testing.T) {
	n := 300000
	if testing.Short() {
		n = 20000
	}
	rng := rand.New(rand.NewSource(29))
	keys := make([]uint64, n)
	for _, g := range [][2]int{{5, 6}, {5, 8}, {5, 12}, {4, 16}, {3, 21}, {2, 32}, {1, 32}} {
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		c := New(Hilbert, g[0], g[1])
		if c.(*hilbertCurve).states == nil {
			t.Fatalf("hilbert(%d,%d) decodes without its state table", g[0], g[1])
		}
		checkDecodeAgainstReference(t, c, keys)
	}
}

// TestHilbertTableSize pins the state table's footprint: dims! states × 2^dims
// digits of 4 bytes, at most 16 KB at the largest tabled dimensionality, and
// no table above it.
func TestHilbertTableSize(t *testing.T) {
	fact := 1
	for dims := 1; dims <= maxTableDims; dims++ {
		fact *= dims
		if got, want := len(hilbertTableFor(dims)), fact<<dims; got != want {
			t.Errorf("dims %d: %d table entries, want %d", dims, got, want)
		}
	}
	if size := len(hilbertTableFor(maxTableDims)) * 4; size > 16<<10 {
		t.Errorf("dims %d: state table is %d bytes, want at most 16 KB", maxTableDims, size)
	}
	if tab := hilbertTableFor(maxTableDims + 1); tab != nil {
		t.Errorf("dims %d: got a %d-entry table, want Skilling's loop", maxTableDims+1, len(tab))
	}
}

// checkDecodeAgainstReference requires DecodeBlock and Decode to match the
// bit-loop reference on every key.
func checkDecodeAgainstReference(t *testing.T, c Curve, keys []uint64) {
	t.Helper()
	dims, bits := c.Dims(), c.Bits()
	block := make([]uint32, len(keys)*dims)
	c.DecodeBlock(keys, block)
	want, got := make(Point, dims), make(Point, dims)
	for i, key := range keys {
		refDeinterleave(key, want, bits)
		if c.Name() == "hilbert" {
			transposeToAxes(want, bits)
		}
		c.Decode(key, got)
		for d := range want {
			if got[d] != want[d] || block[i*dims+d] != want[d] {
				t.Fatalf("%s(%d,%d) key %#x dim %d: Decode %d, DecodeBlock %d, reference %d",
					c.Name(), dims, bits, key, d, got[d], block[i*dims+d], want[d])
			}
		}
	}
}

// BenchmarkDecodeBlock decodes a leaf-sized block of random keys at the two
// benchmark grids — 5 pivots × 6 bits (words) and 5 × 8 (color32) — through
// the state table and through Skilling's loop, reporting ns per key.
func BenchmarkDecodeBlock(b *testing.B) {
	for _, g := range [][2]int{{5, 6}, {5, 8}} {
		dims, bits := g[0], g[1]
		rng := rand.New(rand.NewSource(5))
		keys := make([]uint64, 256)
		for i := range keys {
			keys[i] = rng.Uint64() >> (64 - dims*bits)
		}
		out := make([]uint32, len(keys)*dims)
		table := New(Hilbert, dims, bits).(*hilbertCurve)
		loop := *table
		loop.states = nil
		for _, c := range []struct {
			name string
			h    *hilbertCurve
		}{{"table", table}, {"skilling", &loop}} {
			b.Run(fmt.Sprintf("%dx%d/%s", dims, bits, c.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.h.DecodeBlock(keys, out)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/key")
			})
		}
	}
}
