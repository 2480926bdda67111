package spbtree_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"spbtree"
)

// TestPublicAPI exercises the façade exactly as the README documents it —
// if a re-export is missing or mis-typed, this file does not compile.
func TestPublicAPI(t *testing.T) {
	words := []string{
		"citrate", "defoliate", "defoliated", "defoliates", "defoliating",
		"defoliation", "dictionary", "word", "ward", "warden", "wart",
	}
	objs := make([]spbtree.Object, len(words))
	for i, w := range words {
		objs[i] = spbtree.NewStr(uint64(i), w)
	}
	tree, err := spbtree.Build(objs, spbtree.Options{
		Distance:  spbtree.EditDistance{MaxLen: 16},
		Codec:     spbtree.StrCodec{},
		NumPivots: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	q := spbtree.NewStr(100, "defoliate")
	hits, err := tree.RangeQuery(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, h := range hits {
		got = append(got, h.Object.(*spbtree.Str).S)
	}
	sort.Strings(got)
	want := []string{"defoliate", "defoliated", "defoliates"}
	if len(got) != len(want) {
		t.Fatalf("range: %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range: %v, want %v", got, want)
		}
	}

	nn, err := tree.KNN(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 3 || nn[0].Dist != 0 {
		t.Fatalf("knn: %+v", nn)
	}

	if err := tree.Insert(spbtree.NewStr(200, "defoliator")); err != nil {
		t.Fatal(err)
	}
	if err := tree.Delete(objs[0]); err != nil {
		t.Fatal(err)
	}
	if err := tree.Delete(objs[0]); !errors.Is(err, spbtree.ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}

	est, err := tree.EstimateKNN(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if est.EDC <= 0 {
		t.Errorf("EstimateKNN EDC = %v", est.EDC)
	}

	tree.ResetStats()
	if _, err := tree.KNN(q, 2); err != nil {
		t.Fatal(err)
	}
	if s := tree.TakeStats(); s.DistanceComputations == 0 {
		t.Error("stats not counting through the façade")
	}

	if err := tree.Rebuild(spbtree.NewMemStore(), spbtree.NewMemStore()); err != nil {
		t.Fatal(err)
	}
	if tree.Len() != len(objs) {
		t.Fatalf("Len after rebuild = %d, want %d", tree.Len(), len(objs))
	}
}

// TestPublicJoin runs the documented join flow through the façade.
func TestPublicJoin(t *testing.T) {
	mk := func(base uint64, words ...string) []spbtree.Object {
		objs := make([]spbtree.Object, len(words))
		for i, w := range words {
			objs[i] = spbtree.NewStr(base+uint64(i), w)
		}
		return objs
	}
	Q := mk(0, "defoliate", "defoliates", "defoliation", "anchor", "harbor")
	O := mk(100, "citrate", "defoliated", "defoliating", "anchors", "harbors")
	d := spbtree.EditDistance{MaxLen: 16}

	tq, err := spbtree.Build(Q, spbtree.Options{
		Distance: d, Codec: spbtree.StrCodec{}, Curve: spbtree.ZOrder, NumPivots: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	to, err := spbtree.Build(O, spbtree.Options{
		Distance: d, Codec: spbtree.StrCodec{}, Curve: spbtree.ZOrder, ShareMapping: tq,
	})
	if err != nil {
		t.Fatal(err)
	}
	pairs, _, err := spbtree.Join(context.Background(), tq, to, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force: exactly the pairs within edit distance 1.
	wantCount := 0
	for _, q := range Q {
		for _, o := range O {
			if d.Distance(q, o) <= 1 {
				wantCount++
			}
		}
	}
	if len(pairs) != wantCount {
		t.Fatalf("join returned %d pairs, want %d", len(pairs), wantCount)
	}
	if _, err := spbtree.EstimateJoin(tq, to, 1); err != nil {
		t.Fatal(err)
	}
}

// TestPivotSelectorsExported verifies the selector re-exports satisfy the
// interface and plug into Options.
func TestPivotSelectorsExported(t *testing.T) {
	selectors := []spbtree.PivotSelector{
		spbtree.HFI{}, spbtree.HF{}, spbtree.FFT{}, spbtree.SSS{},
		spbtree.Spacing{}, spbtree.PCASelector{}, spbtree.RandomSelector{},
	}
	objs := make([]spbtree.Object, 60)
	for i := range objs {
		objs[i] = spbtree.NewVector(uint64(i), []float64{float64(i) / 60, float64(i%7) / 7})
	}
	for _, sel := range selectors {
		tree, err := spbtree.Build(objs, spbtree.Options{
			Distance: spbtree.L2(2), Codec: spbtree.VectorCodec{Dim: 2},
			NumPivots: 2, Selector: sel,
		})
		if err != nil {
			t.Fatalf("%s: %v", sel.Name(), err)
		}
		if got, err := tree.KNN(objs[5], 3); err != nil || len(got) != 3 {
			t.Fatalf("%s: knn %v %v", sel.Name(), got, err)
		}
	}
}

// TestPublicPersistence drives the documented save/reopen flow through the
// façade, on real files.
func TestPublicPersistence(t *testing.T) {
	dir := t.TempDir()
	idx, err := spbtree.NewFileStore(filepath.Join(dir, "index.pages"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := spbtree.NewFileStore(filepath.Join(dir, "data.pages"))
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]spbtree.Object, 120)
	for i := range objs {
		objs[i] = spbtree.NewSet(uint64(i), []uint64{uint64(i), uint64(i % 7), uint64(i % 13)})
	}
	tree, err := spbtree.Build(objs, spbtree.Options{
		Distance: spbtree.Jaccard{}, Codec: spbtree.SetCodec{},
		IndexStore: idx, DataStore: data, NumPivots: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var meta bytes.Buffer
	if err := tree.WriteMeta(&meta); err != nil {
		t.Fatal(err)
	}
	idx.Close()
	data.Close()

	idx2, err := spbtree.OpenFileStore(filepath.Join(dir, "index.pages"))
	if err != nil {
		t.Fatal(err)
	}
	defer idx2.Close()
	data2, err := spbtree.OpenFileStore(filepath.Join(dir, "data.pages"))
	if err != nil {
		t.Fatal(err)
	}
	defer data2.Close()
	re, err := spbtree.Open(&meta, spbtree.OpenOptions{
		Distance: spbtree.Jaccard{}, Codec: spbtree.SetCodec{},
		IndexStore: idx2, DataStore: data2,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.KNN(objs[9], 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[0].Dist != 0 {
		t.Fatalf("reopened Jaccard tree kNN: %+v", got)
	}
}

// TestPublicDurability drives the documented durability flow through the
// façade: SaveAtomic → Load → VerifyIntegrity → corrupt → Repair.
func TestPublicDurability(t *testing.T) {
	dir := t.TempDir()
	objs := make([]spbtree.Object, 200)
	for i := range objs {
		objs[i] = spbtree.NewVector(uint64(i), []float64{float64(i%19) / 19, float64(i%29) / 29})
	}
	dist := spbtree.L2(2)
	codec := spbtree.VectorCodec{Dim: 2}

	idx, err := spbtree.NewFileStore(filepath.Join(dir, "index.pages"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := spbtree.NewFileStore(filepath.Join(dir, "data.pages"))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := spbtree.Build(objs, spbtree.Options{
		Distance: dist, Codec: codec, IndexStore: idx, DataStore: data, NumPivots: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.SaveAtomic(dir); err != nil {
		t.Fatal(err)
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := spbtree.Load(dir, spbtree.LoadOptions{Distance: dist, Codec: codec})
	if err != nil {
		t.Fatal(err)
	}
	if err := re.VerifyIntegrity(); err != nil {
		t.Fatalf("fresh index failed verification: %v", err)
	}
	if nn, err := re.KNN(objs[7], 3); err != nil || len(nn) != 3 || nn[0].Dist != 0 {
		t.Fatalf("loaded tree kNN: %+v, %v", nn, err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the first data page (the RAF tail page is reloaded eagerly by
	// Load, earlier pages only on access): Load succeeds, VerifyIntegrity
	// must report the damage with the typed errors, and Repair must bring
	// the index back.
	dataPath := filepath.Join(dir, "data.pages")
	raw, err := os.ReadFile(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[64] ^= 0xff
	if err := os.WriteFile(dataPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	bad, err := spbtree.Load(dir, spbtree.LoadOptions{Distance: dist, Codec: codec})
	if err != nil {
		t.Fatal(err)
	}
	verr := bad.VerifyIntegrity()
	var ierr *spbtree.IntegrityError
	if !errors.As(verr, &ierr) || len(ierr.Corruptions) == 0 {
		t.Fatalf("VerifyIntegrity on corrupt index: %v", verr)
	}
	if !errors.Is(verr, spbtree.ErrCorrupt) {
		t.Errorf("integrity error does not match ErrCorrupt: %v", verr)
	}
	// Queries against the damaged index return partial results plus the
	// typed page error rather than silently wrong answers.
	partial, qerr := bad.RangeQuery(objs[0], 10)
	var cerr *spbtree.CorruptError
	if !errors.As(qerr, &cerr) {
		t.Errorf("query on corrupt index: err = %v, want a CorruptError", qerr)
	}
	if len(partial) >= len(objs) {
		t.Errorf("query on corrupt index returned all %d objects", len(partial))
	}
	bad.Close()

	rep, err := spbtree.Repair(dir, spbtree.LoadOptions{Distance: dist, Codec: codec})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Salvaged == 0 {
		t.Fatalf("repair salvaged nothing: %+v", rep)
	}
	fixed, err := spbtree.Load(dir, spbtree.LoadOptions{Distance: dist, Codec: codec})
	if err != nil {
		t.Fatal(err)
	}
	defer fixed.Close()
	if err := fixed.VerifyIntegrity(); err != nil {
		t.Fatalf("repaired index failed verification: %v", err)
	}

	// A destroyed meta is rejected with the typed sentinel.
	if err := os.WriteFile(filepath.Join(dir, "tree.meta"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := spbtree.Load(dir, spbtree.LoadOptions{Distance: dist, Codec: codec}); !errors.Is(err, spbtree.ErrCorruptMeta) {
		t.Fatalf("Load with destroyed meta: %v", err)
	}
}

// TestPublicForest drives the distributed extension through the façade.
func TestPublicForest(t *testing.T) {
	objs := make([]spbtree.Object, 200)
	for i := range objs {
		objs[i] = spbtree.NewVector(uint64(i), []float64{float64(i%17) / 17, float64(i%23) / 23})
	}
	dist := spbtree.L2(2)
	f, err := spbtree.BuildForest(objs, spbtree.ForestOptions{
		Tree:   spbtree.Options{Distance: dist, Codec: spbtree.VectorCodec{Dim: 2}, Curve: spbtree.ZOrder},
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	nn, err := f.KNN(objs[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 5 || nn[0].Dist != 0 {
		t.Fatalf("forest kNN: %+v", nn)
	}
	fp, err := f.BuildPartner(objs[:50], spbtree.ForestOptions{
		Tree: spbtree.Options{Distance: dist, Codec: spbtree.VectorCodec{Dim: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pairs, _, err := spbtree.JoinForests(context.Background(), fp, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) < 50 {
		t.Fatalf("self-overlap join returned %d pairs", len(pairs))
	}
}
