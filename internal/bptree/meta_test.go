package bptree

import (
	"strings"
	"testing"

	"spbtree/internal/page"
)

func TestMetaRoundTrip(t *testing.T) {
	store := page.NewMemStore()
	tr, err := New(store, Options{MaxLeaf: 4, MaxInternal: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := tr.Insert(uint64(i*3), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	meta := tr.Meta()

	re, err := Open(store, Options{}, meta)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 200 || re.Height() != tr.Height() || re.NumLeaves() != tr.NumLeaves() {
		t.Fatalf("reopened: len=%d h=%d leaves=%d", re.Len(), re.Height(), re.NumLeaves())
	}
	if re.maxLeaf != 4 || re.maxInternal != 4 {
		t.Fatalf("fan-outs not restored: %d/%d", re.maxLeaf, re.maxInternal)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Mutations continue after reopening.
	if err := re.Insert(1000, 1000); err != nil {
		t.Fatal(err)
	}
	if err := re.Delete(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	i := 0
	for c := re.SeekFirst(); c.Valid(); c.Next() {
		i++
	}
	if i != 200 {
		t.Fatalf("scan after reopen: %d entries", i)
	}
}

func TestMetaEmptyTree(t *testing.T) {
	store := page.NewMemStore()
	tr, err := New(store, Options{MaxLeaf: 4, MaxInternal: 4})
	if err != nil {
		t.Fatal(err)
	}
	re, err := Open(store, Options{}, tr.Meta())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := re.Root(); ok {
		t.Error("reopened empty tree has a root")
	}
	if err := re.Insert(1, 1); err != nil {
		t.Fatal(err)
	}
	if re.Len() != 1 {
		t.Error("insert after reopening empty tree failed")
	}
}

func TestOpenRejectsBadMeta(t *testing.T) {
	store := page.NewMemStore()
	if _, err := Open(store, Options{}, nil); err == nil {
		t.Error("nil meta accepted")
	}
	if _, err := Open(store, Options{}, make([]byte, metaFixed)); err == nil {
		t.Error("zero-version meta accepted")
	}
	// A tree of the format before cell words (version 2, keys in leaves and
	// box corners) is refused by version, not read with keys taken for cells.
	prev, err := New(page.NewMemStore(), Options{MaxLeaf: 4, MaxInternal: 4})
	if err != nil {
		t.Fatal(err)
	}
	meta := prev.Meta()
	meta[0] = 2
	if _, err := Open(store, Options{}, meta); err == nil || !strings.Contains(err.Error(), "meta version 2, want 3") {
		t.Errorf("previous-format meta: Open = %v, want a version error", err)
	}
	// A meta pointing at a page beyond the store.
	tr, err := New(page.NewMemStore(), Options{MaxLeaf: 4, MaxInternal: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(page.NewMemStore(), Options{}, tr.Meta()); err == nil {
		t.Error("meta with dangling root accepted")
	}
}

func TestFreeListRecyclesPages(t *testing.T) {
	store := page.NewMemStore()
	tr, err := New(store, Options{MaxLeaf: 4, MaxInternal: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Grow, shrink to empty, grow again: the second growth must reuse the
	// released pages rather than extend the store.
	for i := 0; i < 300; i++ {
		if err := tr.Insert(uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	pagesAfterFirst := store.NumPages()
	for i := 0; i < 300; i++ {
		if err := tr.Delete(uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.FreePages() == 0 {
		t.Fatal("no pages released after deleting everything")
	}
	for i := 0; i < 300; i++ {
		if err := tr.Insert(uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	grown := store.NumPages() - pagesAfterFirst
	if grown > pagesAfterFirst/4 {
		t.Errorf("store grew by %d pages (from %d) despite the free list", grown, pagesAfterFirst)
	}
	// Free list survives the meta round trip.
	for i := 0; i < 150; i++ {
		if err := tr.Delete(uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	re, err := Open(store, Options{}, tr.Meta())
	if err != nil {
		t.Fatal(err)
	}
	if re.FreePages() != tr.FreePages() {
		t.Errorf("reopened free pages %d, want %d", re.FreePages(), tr.FreePages())
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
