package raf

import (
	"math/rand"
	"strings"
	"testing"

	"spbtree/internal/metric"
	"spbtree/internal/page"
)

// batchFixture appends n small vector records and returns their offsets.
func batchFixture(t *testing.T, n int) (*File, *page.MemStore, []uint64, []*metric.Vector) {
	t.Helper()
	store := page.NewMemStore()
	f := New(store, metric.VectorCodec{Dim: 8})
	rng := rand.New(rand.NewSource(7))
	offsets := make([]uint64, n)
	objs := make([]*metric.Vector, n)
	for i := 0; i < n; i++ {
		coords := make([]float64, 8)
		for j := range coords {
			coords[j] = rng.Float64()
		}
		objs[i] = metric.NewVector(uint64(i), coords)
		off, err := f.Append(objs[i])
		if err != nil {
			t.Fatal(err)
		}
		offsets[i] = off
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	return f, store, offsets, objs
}

func TestReadBatchMatchesRead(t *testing.T) {
	f, store, offsets, want := batchFixture(t, 300)

	// Shuffle the input order: results must land at the input indexes
	// regardless of the ascending-offset visit order.
	rng := rand.New(rand.NewSource(9))
	idx := rng.Perm(len(offsets))
	batchOff := make([]uint64, len(idx))
	for i, j := range idx {
		batchOff[i] = offsets[j]
	}

	out := make([]metric.Object, len(batchOff))
	plens := make([]int, len(batchOff))
	store.Stats().Reset()
	if bad, err := f.ReadBatch(batchOff, out, plens); err != nil {
		t.Fatalf("ReadBatch: index %d: %v", bad, err)
	}
	batchReads := store.Stats().Reads()

	for i, j := range idx {
		got := out[i].(*metric.Vector)
		if got.Id != want[j].Id {
			t.Fatalf("out[%d] = id %d, want %d", i, got.Id, want[j].Id)
		}
		for c := range got.Coords {
			if got.Coords[c] != want[j].Coords[c] {
				t.Fatalf("out[%d] coord %d mismatch", i, c)
			}
		}
		if plens[i] <= 0 {
			t.Fatalf("plens[%d] = %d", i, plens[i])
		}
	}

	// The same records read one by one touch the store once per record;
	// the coalesced batch touches each page once.
	store.Stats().Reset()
	for _, off := range batchOff {
		if _, err := f.Read(off); err != nil {
			t.Fatal(err)
		}
	}
	serialReads := store.Stats().Reads()
	if batchReads != int64(f.PagesUsed()) {
		t.Errorf("batch performed %d physical reads, want one per page (%d)", batchReads, f.PagesUsed())
	}
	if batchReads >= serialReads {
		t.Errorf("batch reads %d not fewer than per-record reads %d", batchReads, serialReads)
	}
}

func TestReadBatchNilPlensAndEmpty(t *testing.T) {
	f, _, offsets, _ := batchFixture(t, 10)
	out := make([]metric.Object, 3)
	if bad, err := f.ReadBatch(offsets[:3], out, nil); err != nil {
		t.Fatalf("nil plens: index %d: %v", bad, err)
	}
	if bad, err := f.ReadBatch(nil, nil, nil); err != nil {
		t.Fatalf("empty batch: index %d: %v", bad, err)
	}
	if _, err := f.ReadBatch(offsets[:3], out[:2], nil); err == nil {
		t.Error("mismatched output length accepted")
	}
	if _, err := f.ReadBatch(offsets[:3], out, make([]int, 2)); err == nil {
		t.Error("mismatched plens length accepted")
	}
}

func TestReadBatchUnflushedTail(t *testing.T) {
	store := page.NewMemStore()
	f := New(store, metric.StrCodec{})
	off1, err := f.Append(metric.NewStr(1, strings.Repeat("a", 200)))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	// This record stays in the append buffer: the batch must serve it from
	// memory without mutating the file.
	off2, err := f.Append(metric.NewStr(2, "tail-resident"))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]metric.Object, 2)
	if bad, err := f.ReadBatch([]uint64{off1, off2}, out, nil); err != nil {
		t.Fatalf("index %d: %v", bad, err)
	}
	if got := out[1].(*metric.Str).S; got != "tail-resident" {
		t.Errorf("tail record = %q", got)
	}
}

func TestReadBatchErrorIndex(t *testing.T) {
	f, store, offsets, _ := batchFixture(t, 50)

	// Out of range: the error index is the failing entry's input position.
	out := make([]metric.Object, 3)
	bad, err := f.ReadBatch([]uint64{offsets[5], f.Size() + 64, offsets[2]}, out, nil)
	if err == nil {
		t.Fatal("out-of-range offset accepted")
	}
	if bad != 1 {
		t.Fatalf("error index %d, want 1", bad)
	}
	// Offsets below the failing one (in offset order) are already decoded.
	if out[0] == nil || out[2] == nil {
		t.Error("entries before the failure not decoded")
	}

	// Corrupt the length field of a record whose header sits inside one
	// page: the batch reports that input index, and earlier offsets are
	// intact.
	victim := -1
	for i := 30; i < len(offsets); i++ {
		if offsets[i]%page.Size+12 <= page.Size {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no in-page record header to corrupt")
	}
	pg := page.ID(offsets[victim] / page.Size)
	buf := make([]byte, page.Size)
	if err := store.Read(pg, buf); err != nil {
		t.Fatal(err)
	}
	in := offsets[victim] % page.Size
	buf[in+8], buf[in+9], buf[in+10], buf[in+11] = 0xFF, 0xFF, 0xFF, 0x7F
	if err := store.Write(pg, buf); err != nil {
		t.Fatal(err)
	}
	batch := []uint64{offsets[10], offsets[victim], offsets[20]}
	out = make([]metric.Object, 3)
	bad, err = f.ReadBatch(batch, out, nil)
	if err == nil {
		t.Fatal("corrupt record accepted")
	}
	if bad != 1 {
		t.Fatalf("corrupt record error index %d, want 1", bad)
	}
	if out[0] == nil || out[2] == nil {
		t.Error("healthy records before the corrupt one not decoded")
	}
}
