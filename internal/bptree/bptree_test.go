package bptree

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"spbtree/internal/page"
	"spbtree/internal/sfc"
)

func newTestTree(t *testing.T, opts Options) *Tree {
	t.Helper()
	tr, err := New(page.NewMemStore(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// smallOpts forces deep trees so splits and merges are exercised heavily.
func smallOpts() Options { return Options{MaxLeaf: 4, MaxInternal: 4} }

func TestEmptyTree(t *testing.T) {
	tr := newTestTree(t, smallOpts())
	if _, ok := tr.Root(); ok {
		t.Error("empty tree has a root")
	}
	if tr.Len() != 0 || tr.Height() != 0 || tr.NumLeaves() != 0 {
		t.Error("empty tree has non-zero counters")
	}
	if c := tr.SeekFirst(); c.Valid() {
		t.Error("cursor valid on empty tree")
	}
	if err := tr.Delete(1, 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("Delete on empty = %v", err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInsertAndScan(t *testing.T) {
	tr := newTestTree(t, smallOpts())
	rng := rand.New(rand.NewSource(1))
	var want []Pair
	for i := 0; i < 500; i++ {
		e := Pair{Key: uint64(rng.Intn(100)), Val: uint64(i)}
		if err := tr.Insert(e.Key, e.Val); err != nil {
			t.Fatal(err)
		}
		want = append(want, e)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 500 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Height() < 3 {
		t.Errorf("height %d suspiciously small for fan-out 4", tr.Height())
	}
	var got []Pair
	for c := tr.SeekFirst(); c.Valid(); c.Next() {
		got = append(got, Pair{Key: c.Key(), Val: c.Val()})
	}
	if len(got) != len(want) {
		t.Fatalf("scan returned %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("scan[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSeek(t *testing.T) {
	tr := newTestTree(t, smallOpts())
	for i := 0; i < 100; i++ {
		if err := tr.Insert(uint64(i*10), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		seek, wantKey uint64
		valid         bool
	}{
		{0, 0, true},
		{5, 10, true},
		{10, 10, true},
		{991, 0, false},
		{990, 990, true},
	}
	for _, tc := range cases {
		c := tr.Seek(tc.seek)
		if c.Valid() != tc.valid {
			t.Errorf("Seek(%d).Valid = %v, want %v", tc.seek, c.Valid(), tc.valid)
			continue
		}
		if tc.valid && c.Key() != tc.wantKey {
			t.Errorf("Seek(%d).Key = %d, want %d", tc.seek, c.Key(), tc.wantKey)
		}
	}
}

func TestDeleteEverythingRandomly(t *testing.T) {
	tr := newTestTree(t, smallOpts())
	rng := rand.New(rand.NewSource(2))
	var live []Pair
	for i := 0; i < 400; i++ {
		e := Pair{Key: uint64(rng.Intn(64)), Val: uint64(i)}
		if err := tr.Insert(e.Key, e.Val); err != nil {
			t.Fatal(err)
		}
		live = append(live, e)
	}
	for len(live) > 0 {
		i := rng.Intn(len(live))
		e := live[i]
		live = append(live[:i], live[i+1:]...)
		if err := tr.Delete(e.Key, e.Val); err != nil {
			t.Fatalf("Delete(%v): %v", e, err)
		}
		if rng.Intn(16) == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after deleting %v: %v", e, err)
			}
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteMissing(t *testing.T) {
	tr := newTestTree(t, smallOpts())
	if err := tr.Insert(5, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete(5, 2); !errors.Is(err, ErrNotFound) {
		t.Errorf("Delete(5,2) = %v, want ErrNotFound", err)
	}
	if err := tr.Delete(6, 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("Delete(6,1) = %v, want ErrNotFound", err)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d", tr.Len())
	}
}

// TestModelEquivalence runs a random mixed workload against both the tree and
// a reference sorted multiset, comparing full scans after every batch.
func TestModelEquivalence(t *testing.T) {
	tr := newTestTree(t, smallOpts())
	rng := rand.New(rand.NewSource(3))
	model := map[Pair]bool{}
	nextVal := uint64(0)
	for batch := 0; batch < 30; batch++ {
		for op := 0; op < 40; op++ {
			if rng.Intn(3) != 0 || len(model) == 0 {
				e := Pair{Key: uint64(rng.Intn(40)), Val: nextVal}
				nextVal++
				if err := tr.Insert(e.Key, e.Val); err != nil {
					t.Fatal(err)
				}
				model[e] = true
			} else {
				// Delete a random live entry.
				var victim Pair
				k := rng.Intn(len(model))
				for e := range model {
					if k == 0 {
						victim = e
						break
					}
					k--
				}
				if err := tr.Delete(victim.Key, victim.Val); err != nil {
					t.Fatalf("Delete(%v): %v", victim, err)
				}
				delete(model, victim)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		want := make([]Pair, 0, len(model))
		for e := range model {
			want = append(want, e)
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
		var got []Pair
		for c := tr.SeekFirst(); c.Valid(); c.Next() {
			got = append(got, Pair{Key: c.Key(), Val: c.Val()})
		}
		if len(got) != len(want) {
			t.Fatalf("batch %d: scan %d entries, want %d", batch, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("batch %d: scan[%d] = %v, want %v", batch, i, got[i], want[i])
			}
		}
	}
}

func TestBulkLoad(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 5, 16, 17, 100, 1000} {
		tr := newTestTree(t, smallOpts())
		entries := make([]Pair, n)
		for i := range entries {
			entries[i] = Pair{Key: uint64(i / 3), Val: uint64(i)}
		}
		if err := tr.BulkLoad(entries); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		i := 0
		for c := tr.SeekFirst(); c.Valid(); c.Next() {
			if (Pair{Key: c.Key(), Val: c.Val()}) != entries[i] {
				t.Fatalf("n=%d: scan[%d] mismatch", n, i)
			}
			i++
		}
		if i != n {
			t.Fatalf("n=%d: scan returned %d", n, i)
		}
	}
}

func TestBulkLoadRejectsUnsortedAndNonEmpty(t *testing.T) {
	tr := newTestTree(t, smallOpts())
	if err := tr.BulkLoad([]Pair{{2, 0}, {1, 0}}); err == nil {
		t.Error("unsorted input accepted")
	}
	tr = newTestTree(t, smallOpts())
	if err := tr.Insert(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad([]Pair{{1, 0}}); err == nil {
		t.Error("BulkLoad on non-empty tree accepted")
	}
}

func TestBulkLoadThenMutate(t *testing.T) {
	tr := newTestTree(t, smallOpts())
	entries := make([]Pair, 300)
	for i := range entries {
		entries[i] = Pair{Key: uint64(2 * i), Val: uint64(i)}
	}
	if err := tr.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	// Interleave inserts and deletes after a bulk load.
	for i := 0; i < 100; i++ {
		if err := tr.Insert(uint64(2*i+1), uint64(1000+i)); err != nil {
			t.Fatal(err)
		}
		if err := tr.Delete(uint64(2*i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 300 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestGeometryBoxes(t *testing.T) {
	curve := sfc.New(sfc.Hilbert, 2, 4)
	tr := newTestTree(t, Options{Geometry: geoAdapter{curve}, MaxLeaf: 4, MaxInternal: 4})
	rng := rand.New(rand.NewSource(9))
	p := make(sfc.Point, 2)
	for i := 0; i < 200; i++ {
		p[0] = rng.Uint32() % 16
		p[1] = rng.Uint32() % 16
		if err := tr.Insert(curve.Encode(p), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// CheckInvariants recomputes every box via the geometry and compares.
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The root box must contain every inserted point.
	root, _ := tr.Root()
	lo := make(sfc.Point, 2)
	hi := make(sfc.Point, 2)
	curve.Decode(root.BoxLo, lo)
	curve.Decode(root.BoxHi, hi)
	for c := tr.SeekFirst(); c.Valid(); c.Next() {
		curve.Decode(c.Key(), p)
		if !sfc.Contains(lo, hi, p) {
			t.Fatalf("point %v outside root box [%v, %v]", p, lo, hi)
		}
	}
	// Delete half and re-verify boxes shrink consistently.
	var pairs []Pair
	for c := tr.SeekFirst(); c.Valid(); c.Next() {
		pairs = append(pairs, Pair{Key: c.Key(), Val: c.Val()})
	}
	for i := 0; i < len(pairs); i += 2 {
		if err := tr.Delete(pairs[i].Key, pairs[i].Val); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// geoAdapter adapts sfc.Curve (whose Point type is a named slice) to the
// Geometry interface.
type geoAdapter struct{ c sfc.Curve }

func (g geoAdapter) Dims() int                   { return g.c.Dims() }
func (g geoAdapter) Decode(k uint64, p []uint32) { g.c.Decode(k, sfc.Point(p)) }
func (g geoAdapter) Encode(p []uint32) uint64    { return g.c.Encode(sfc.Point(p)) }

func TestWalk(t *testing.T) {
	tr := newTestTree(t, smallOpts())
	for i := 0; i < 100; i++ {
		if err := tr.Insert(uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var nodes, leaves int
	maxDepth := 0
	err := tr.Walk(func(depth int, ref NodeRef, n *Node) error {
		nodes++
		if n.Leaf {
			leaves++
		}
		if depth > maxDepth {
			maxDepth = depth
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if leaves != tr.NumLeaves() {
		t.Errorf("walk saw %d leaves, tree reports %d", leaves, tr.NumLeaves())
	}
	if maxDepth+1 != tr.Height() {
		t.Errorf("walk depth %d, height %d", maxDepth+1, tr.Height())
	}
}

func TestPageCapacityDefaults(t *testing.T) {
	tr, err := New(page.NewMemStore(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.maxLeaf != maxLeafCap || tr.maxInternal != maxInternalCap(0) {
		t.Errorf("defaults: leaf=%d internal=%d", tr.maxLeaf, tr.maxInternal)
	}
	// A full page of entries must serialize and round trip.
	entries := make([]Pair, maxLeafCap)
	for i := range entries {
		entries[i] = Pair{Key: uint64(i), Val: uint64(i)}
	}
	if err := tr.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New(page.NewMemStore(), Options{MaxLeaf: 1}); err == nil {
		t.Error("MaxLeaf 1 accepted")
	}
	if _, err := New(page.NewMemStore(), Options{MaxInternal: 2}); err == nil {
		t.Error("MaxInternal 2 accepted")
	}
	if _, err := New(page.NewMemStore(), Options{MaxLeaf: maxLeafCap + 1}); err == nil {
		t.Error("oversized MaxLeaf accepted")
	}
}

func TestIOErrorsSurface(t *testing.T) {
	// Build a healthy tree, then wrap its store in a fault injector and
	// verify every operation reports the error instead of corrupting state.
	mem := page.NewMemStore()
	tr, err := New(mem, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := tr.Insert(uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.store = page.AsCache(page.NewFaultStore(mem, 0))
	if err := tr.Insert(99, 99); !errors.Is(err, page.ErrInjected) {
		t.Errorf("Insert under fault = %v", err)
	}
	if err := tr.Delete(1, 1); !errors.Is(err, page.ErrInjected) {
		t.Errorf("Delete under fault = %v", err)
	}
	c := tr.SeekFirst()
	if c.Valid() || !errors.Is(c.Err(), page.ErrInjected) {
		t.Errorf("cursor under fault: valid=%v err=%v", c.Valid(), c.Err())
	}
	if err := tr.ReadNode(0, &Node{}); !errors.Is(err, page.ErrInjected) {
		t.Errorf("ReadNode under fault = %v", err)
	}
}

func TestFileStoreBackedTree(t *testing.T) {
	fs, err := page.NewTempFileStore()
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	tr, err := New(fs, Options{MaxLeaf: 8, MaxInternal: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := tr.Insert(uint64(i*7%1000), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if fs.Stats().Accesses() == 0 {
		t.Error("file store recorded no page accesses")
	}
}

func TestCorruptNodeRejected(t *testing.T) {
	mem := page.NewMemStore()
	tr, err := New(mem, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(1, 1); err != nil {
		t.Fatal(err)
	}
	// Corrupt the leaf page with an absurd count.
	buf := make([]byte, page.Size)
	if err := mem.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	buf[1], buf[2] = 0xFF, 0xFF
	if err := mem.Write(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := tr.ReadNode(0, &Node{}); err == nil {
		t.Error("corrupt node decoded without error")
	}
}
