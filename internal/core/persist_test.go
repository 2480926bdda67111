package core

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spbtree/internal/metric"
	"spbtree/internal/page"
)

func TestSaveOpenRoundTripMemory(t *testing.T) {
	objs := vectorSet(600, 5, 81)
	dist := metric.L2(5)
	idx := page.NewMemStore()
	data := page.NewMemStore()
	tree, err := Build(objs, Options{
		Distance: dist, Codec: metric.VectorCodec{Dim: 5},
		IndexStore: idx, DataStore: data, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var meta bytes.Buffer
	if err := tree.WriteMeta(&meta); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(bytes.NewReader(meta.Bytes()), OpenOptions{
		Distance: dist, Codec: metric.VectorCodec{Dim: 5},
		IndexStore: idx, DataStore: data,
	})
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != tree.Len() || reopened.Bits() != tree.Bits() || reopened.Delta() != tree.Delta() {
		t.Fatalf("reopened shape differs: len %d/%d bits %d/%d", reopened.Len(), tree.Len(), reopened.Bits(), tree.Bits())
	}

	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 15; trial++ {
		q := objs[rng.Intn(len(objs))]
		r := 0.05 + 0.2*rng.Float64()
		a, err := tree.RangeQuery(q, r)
		if err != nil {
			t.Fatal(err)
		}
		b, err := reopened.RangeQuery(q, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("trial %d: %d vs %d results", trial, len(a), len(b))
		}
		nnA, err := tree.KNN(q, 6)
		if err != nil {
			t.Fatal(err)
		}
		nnB, err := reopened.KNN(q, 6)
		if err != nil {
			t.Fatal(err)
		}
		for i := range nnA {
			if nnA[i].Dist != nnB[i].Dist {
				t.Fatalf("trial %d: kNN dist %v vs %v", trial, nnA[i].Dist, nnB[i].Dist)
			}
		}
	}
	// Cost models survive the round trip.
	ea, err := tree.EstimateKNN(objs[0], 8)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := reopened.EstimateKNN(objs[0], 8)
	if err != nil {
		t.Fatal(err)
	}
	if ea.EDC != eb.EDC || ea.Radius != eb.Radius {
		t.Errorf("cost model drifted: %+v vs %+v", ea, eb)
	}
}

func TestSaveOpenOnDiskWithMutations(t *testing.T) {
	dir := t.TempDir()
	idxPath := filepath.Join(dir, "index.pages")
	dataPath := filepath.Join(dir, "data.pages")
	metaPath := filepath.Join(dir, "tree.meta")

	objs := wordSet(400, 83)
	dist := metric.EditDistance{MaxLen: 24}

	// Build against real files, save, close everything.
	{
		idx, err := page.NewFileStore(idxPath)
		if err != nil {
			t.Fatal(err)
		}
		data, err := page.NewFileStore(dataPath)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := Build(objs[:350], Options{
			Distance: dist, Codec: metric.StrCodec{},
			IndexStore: idx, DataStore: data, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(metaPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.WriteMeta(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if err := idx.Close(); err != nil {
			t.Fatal(err)
		}
		if err := data.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Reopen from disk in a fresh process-like state.
	idx, err := page.OpenFileStore(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	data, err := page.OpenFileStore(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close()
	mf, err := os.Open(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	tree, err := Open(mf, OpenOptions{
		Distance: dist, Codec: metric.StrCodec{},
		IndexStore: idx, DataStore: data,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 350 {
		t.Fatalf("Len = %d", tree.Len())
	}

	// Mutations continue to work after reopening (RAF tail reload included).
	for _, o := range objs[350:] {
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Delete(objs[0]); err != nil {
		t.Fatal(err)
	}
	q := objs[10]
	got, err := tree.RangeQuery(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := bfRange(objs[1:], q, 3, dist) // objs[0] deleted
	if len(got) != len(want) {
		t.Fatalf("after reopen+mutate: got %d, want %d", len(got), len(want))
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	objs := vectorSet(50, 3, 84)
	dist := metric.L2(3)
	opts := OpenOptions{
		Distance: dist, Codec: metric.VectorCodec{Dim: 3},
		IndexStore: page.NewMemStore(), DataStore: page.NewMemStore(),
	}
	_ = objs
	if _, err := Open(bytes.NewReader(nil), opts); err == nil {
		t.Error("empty meta accepted")
	}
	if _, err := Open(bytes.NewReader([]byte{99}), opts); err == nil {
		t.Error("wrong version accepted")
	}
	if _, err := Open(bytes.NewReader([]byte{treeMetaVersion, 0, 5}), opts); err == nil {
		t.Error("truncated meta accepted")
	}
	// Valid meta, but missing stores/metric.
	idx := page.NewMemStore()
	data := page.NewMemStore()
	tree, err := Build(objs, Options{Distance: dist, Codec: metric.VectorCodec{Dim: 3}, IndexStore: idx, DataStore: data})
	if err != nil {
		t.Fatal(err)
	}
	var meta bytes.Buffer
	if err := tree.WriteMeta(&meta); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bytes.NewReader(meta.Bytes()), OpenOptions{Codec: metric.VectorCodec{Dim: 3}, IndexStore: idx, DataStore: data}); err == nil {
		t.Error("missing Distance accepted")
	}
	if _, err := Open(bytes.NewReader(meta.Bytes()), OpenOptions{Distance: dist, Codec: metric.VectorCodec{Dim: 3}}); err == nil {
		t.Error("missing stores accepted")
	}
	// Truncate at every byte boundary of the prefix: must error, not panic.
	raw := meta.Bytes()
	for cut := 0; cut < len(raw) && cut < 200; cut += 7 {
		if _, err := Open(bytes.NewReader(raw[:cut]), OpenOptions{
			Distance: dist, Codec: metric.VectorCodec{Dim: 3},
			IndexStore: idx, DataStore: data,
		}); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestLoadRejectsPreviousLeafFormat: an index whose B+-tree meta carries the
// version before cell words (leaves and box corners holding SFC keys) fails
// Load with ErrCorruptMeta naming the version, instead of reading its keys as
// cells.
func TestLoadRejectsPreviousLeafFormat(t *testing.T) {
	dir := t.TempDir()
	dist := metric.L2(5)
	tree := buildDir(t, dir, vectorSet(300, 5, 63), dist)
	bm := tree.bpt.Meta()
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	metaPath := filepath.Join(dir, MetaFile)
	raw, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	payload := raw[:len(raw)-12]
	at := bytes.Index(payload, bm)
	if at < 0 || bytes.Count(payload, bm) != 1 {
		t.Fatalf("B+-tree meta found %d times in the tree meta", bytes.Count(payload, bm))
	}
	old := append([]byte(nil), payload...)
	old[at] = 2 // the B+-tree meta version before cell words
	if err := os.WriteFile(metaPath, appendMetaFooter(old), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(dir, LoadOptions{Distance: dist, Codec: metric.VectorCodec{Dim: 5}})
	if !errors.Is(err, ErrCorruptMeta) || !strings.Contains(err.Error(), "meta version 2, want 3") {
		t.Fatalf("Load = %v, want ErrCorruptMeta naming B+-tree meta version 2", err)
	}
}
