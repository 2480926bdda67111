package raf

import (
	"errors"
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

// TestCopyRecordsCorruptLength: a record whose header claims a payload
// beyond the file stops the copy at its index; the records before it are
// copied intact.
func TestCopyRecordsCorruptLength(t *testing.T) {
	f, store, offsets, want := batchFixture(t, 50)
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
	recs := make([][]byte, 3)
	n, err := f.CopyRecords([]uint64{offsets[10], offsets[20], offsets[victim]}, func(i, n int) []byte {
		recs[i] = make([]byte, n)
		return recs[i]
	})
	if err == nil || n != 2 {
		t.Fatalf("corrupt record: %d copied, %v; want 2 copied and an error", n, err)
	}
	for i, j := range []int{10, 20} {
		obj, _, err := f.DecodeRecord(offsets[j], recs[i], nil)
		if err != nil || obj.ID() != want[j].Id {
			t.Fatalf("record %d before the corrupt one: %v, %v", j, obj, err)
		}
	}
}

// TestCopyRecordsMatchesRead: records copied in file order decode to what
// Read returns — those straddling a page boundary, a record four pages long
// and one still in the append buffer included. Placed in 1 KB chunks, the
// copy still reads each page once: one page reader serves the whole call
// however often the chunk changes.
func TestCopyRecordsMatchesRead(t *testing.T) {
	store := page.NewMemStore()
	f := New(store, metric.StrCodec{})
	rng := rand.New(rand.NewSource(5))
	var offsets []uint64
	for i := 0; i < 400; i++ {
		s := strings.Repeat(string(rune('a'+i%26)), 1+rng.Intn(60))
		if i == 200 {
			s = strings.Repeat("x", 3*page.Size+100)
		}
		off, err := f.Append(metric.NewStr(uint64(i), s))
		if err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, off)
		if i == 398 {
			if err := f.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(label string, i int, rec []byte) {
		t.Helper()
		want, err := f.Read(offsets[i])
		if err != nil {
			t.Fatal(err)
		}
		got, plen, err := f.DecodeRecord(offsets[i], rec, nil)
		if err != nil {
			t.Fatalf("%s: record %d: %v", label, i, err)
		}
		if got.ID() != want.ID() || got.(*metric.Str).S != want.(*metric.Str).S || plen != len(want.(*metric.Str).S) {
			t.Fatalf("%s: record %d: copy decodes to (%d, %d bytes), Read to (%d, %d bytes)",
				label, i, got.ID(), plen, want.ID(), len(want.(*metric.Str).S))
		}
	}

	store.Stats().Reset()
	const chunk = 1 << 10
	var chunks [][]byte
	recs := make([][]byte, len(offsets))
	n, err := f.CopyRecords(offsets, func(i, n int) []byte {
		c := len(chunks) - 1
		if c < 0 || len(chunks[c])+n > cap(chunks[c]) {
			chunks = append(chunks, make([]byte, 0, max(n, chunk)))
			c++
		}
		at := len(chunks[c])
		chunks[c] = chunks[c][:at+n]
		recs[i] = chunks[c][at:]
		return recs[i]
	})
	if err != nil || n != len(offsets) {
		t.Fatalf("CopyRecords: %d copied, %v", n, err)
	}
	if reads := store.Stats().Reads(); reads != int64(f.PagesUsed()-1) {
		t.Errorf("copy into %d chunks performed %d physical reads, want one per flushed page (%d)", len(chunks), reads, f.PagesUsed()-1)
	}
	for i := range offsets {
		check("copy", i, recs[i])
	}
}

// TestCopyRecordsErrorIndex: a copy stops at the first record it cannot
// read and reports its index; the records before it stay valid.
func TestCopyRecordsErrorIndex(t *testing.T) {
	f, store, offsets, want := batchFixture(t, 50)
	var recs [][]byte
	place := func(i, n int) []byte {
		recs = append(recs[:i], make([]byte, n))
		return recs[i]
	}
	n, err := f.CopyRecords([]uint64{offsets[5], f.Size() + 64, offsets[2]}, place)
	if err == nil || n != 1 {
		t.Fatalf("out-of-range offset: %d copied, %v", n, err)
	}
	obj, _, err := f.DecodeRecord(offsets[5], recs[0], nil)
	if err != nil || obj.ID() != want[5].Id {
		t.Fatalf("record before the failure: %v, %v", obj, err)
	}

	fs := page.NewFaultStore(store, -1)
	g := New(fs, metric.VectorCodec{Dim: 8})
	g.size, g.count = f.size, f.count
	victim := page.ID(offsets[40] / page.Size)
	fs.FailPage(victim, page.OpRead)
	first := 0 // the first record with a byte on the victim page
	for offsets[first+1]-1 < uint64(victim)*page.Size {
		first++
	}
	if n, err = g.CopyRecords(offsets, place); !errors.Is(err, page.ErrInjected) || n != first {
		t.Fatalf("unreadable page %d: %d copied, %v; want %d copied and the injected fault", victim, n, err, first)
	}
}
