package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"spbtree/internal/bptree"
	"spbtree/internal/metric"
	"spbtree/internal/page"
	"spbtree/internal/sfc"
	"spbtree/internal/wal"
)

// faultyTree builds a tree whose stores sit on FaultStores *below* the
// checksum layer, so FlipBit models silent media rot that only the checksums
// can catch. Caching is disabled so every query read reaches the stores.
func faultyTree(t *testing.T, n int) (*Tree, *page.FaultStore, *page.FaultStore, []metric.Object, metric.DistanceFunc) {
	t.Helper()
	objs := vectorSet(n, 5, 11)
	dist := metric.L2(5)
	idxFault := page.NewFaultStore(page.NewMemStore(), -1)
	dataFault := page.NewFaultStore(page.NewMemStore(), -1)
	tree, err := Build(objs, Options{
		Distance: dist, Codec: metric.VectorCodec{Dim: 5},
		IndexStore: idxFault, DataStore: dataFault,
		CacheSize: -1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree, idxFault, dataFault, objs, dist
}

func flipAllPages(f *page.FaultStore, n int) {
	for id := 0; id < n; id++ {
		f.FlipBit(page.ID(id), 9+64*id%(8*page.Size))
	}
}

func TestRangeQuerySurfacesCorruptDataPage(t *testing.T) {
	tree, _, dataFault, objs, dist := faultyTree(t, 400)
	q := objs[3]
	want := bfRange(objs, q, 0.5, dist)

	dataFault.FlipBit(0, 77)
	res, err := tree.RangeQuery(q, 0.5)
	if !errors.Is(err, page.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	var ce *page.CorruptError
	if !errors.As(err, &ce) || ce.ID != 0 {
		t.Fatalf("err = %v, want *CorruptError for page 0", err)
	}
	// Partial results: a subset of the true answer, never fabricated.
	if len(res) >= len(want) {
		t.Fatalf("got %d results with a corrupt page, brute force has %d", len(res), len(want))
	}
	for _, r := range res {
		if !want[r.Object.ID()] {
			t.Fatalf("partial result %d is not a true answer", r.Object.ID())
		}
	}

	// Healing the medium restores exact answers.
	dataFault.ClearFlips()
	res, err = tree.RangeQuery(q, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(want) {
		t.Fatalf("after heal: %d results, want %d", len(res), len(want))
	}
}

func TestRangeQuerySurfacesCorruptIndexPage(t *testing.T) {
	tree, idxFault, _, objs, _ := faultyTree(t, 400)
	flipAllPages(idxFault, tree.idxCache.NumPages())
	_, err := tree.RangeQuery(objs[0], 0.4)
	if !errors.Is(err, page.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	idxFault.ClearFlips()
	if _, err := tree.RangeQuery(objs[0], 0.4); err != nil {
		t.Fatal(err)
	}
}

func TestKNNSurfacesCorruptionWithPartialResults(t *testing.T) {
	tree, _, dataFault, objs, _ := faultyTree(t, 400)
	q := objs[5]
	flipAllPages(dataFault, tree.raf.PagesUsed())
	res, err := tree.KNN(q, 8)
	if !errors.Is(err, page.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if len(res) >= 8 {
		t.Fatalf("full result set despite every data page corrupt: %d", len(res))
	}

	dataFault.ClearFlips()
	res, err = tree.KNN(q, 8)
	if err != nil {
		t.Fatal(err)
	}
	wantDists := bfKNNDists(objs, q, 8, metric.L2(5))
	if len(res) != len(wantDists) {
		t.Fatalf("after heal: %d results, want %d", len(res), len(wantDists))
	}
	for i := range res {
		if res[i].Dist != wantDists[i] {
			t.Fatalf("after heal: dist[%d] = %v, want %v", i, res[i].Dist, wantDists[i])
		}
	}
}

func TestNearestIterSurfacesCorruption(t *testing.T) {
	tree, _, dataFault, objs, _ := faultyTree(t, 300)
	flipAllPages(dataFault, tree.raf.PagesUsed())
	it := tree.NearestIter(objs[0])
	n := 0
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		n++
		if n > 300 {
			t.Fatal("iterator did not terminate")
		}
	}
	if !errors.Is(it.Err(), page.ErrCorrupt) {
		t.Fatalf("iter err = %v, want ErrCorrupt", it.Err())
	}
}

func TestJoinSurfacesCorruptionWithPartialPairs(t *testing.T) {
	objs := vectorSet(250, 4, 21)
	dist := metric.L2(4)
	dataFault := page.NewFaultStore(page.NewMemStore(), -1)
	tq, err := Build(objs, Options{
		Distance: dist, Codec: metric.VectorCodec{Dim: 4},
		Curve: sfc.ZOrder, DataStore: dataFault, CacheSize: -1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	to, err := Build(vectorSet(250, 4, 22), Options{
		Distance: dist, Codec: metric.VectorCodec{Dim: 4},
		Curve: sfc.ZOrder, ShareMapping: tq, CacheSize: -1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := Join(context.Background(), tq, to, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) == 0 {
		t.Fatal("test needs a non-empty join")
	}

	flipAllPages(dataFault, tq.raf.PagesUsed())
	partial, _, err := Join(context.Background(), tq, to, 0.2)
	if !errors.Is(err, page.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if len(partial) >= len(full) {
		t.Fatalf("join over corrupt store returned %d pairs, healthy join %d", len(partial), len(full))
	}
}

// TestFullScansSurfaceLeafReadFaults: Rebuild, CompactNow, BuildGraph and
// CalibrateEf each walk the whole leaf chain. A read fault on a leaf past the
// first must fail the call with that fault instead of letting it act on the
// prefix read so far: once the medium heals, the tree's size, its exact and
// graph answers and its graph are what they were before the call.
func TestFullScansSurfaceLeafReadFaults(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*Tree) error
	}{
		{"Rebuild", func(tree *Tree) error { return tree.Rebuild(nil, nil) }},
		{"CompactNow", func(tree *Tree) error { return tree.CompactNow() }},
		{"BuildGraph", func(tree *Tree) error { return tree.BuildGraph(GraphOptions{Seed: 5}) }},
		{"CalibrateEf", func(tree *Tree) error { _, err := tree.CalibrateEf(0.9, 16); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tree, idxFault, _, objs, _ := faultyTree(t, 1200)
			defer tree.Close()
			if tc.name == "CompactNow" {
				// Arm the durable write path in place and buffer one insert,
				// so compaction has a delta to fold.
				dir := t.TempDir()
				log, err := wal.Open(filepath.Join(dir, WALDir), wal.Options{NoSync: true})
				if err != nil {
					t.Fatal(err)
				}
				tree.attachDurable(dir, 1, 0, log, DurableOptions{CompactThreshold: -1, NoSync: true})
				extra := vectorSet(1, 5, 77)[0].(*metric.Vector)
				extra.Id = 100000
				if err := tree.Insert(extra); err != nil {
					t.Fatal(err)
				}
			}
			if err := tree.BuildGraph(GraphOptions{Seed: 3}); err != nil {
				t.Fatal(err)
			}
			answers := func() []Result {
				t.Helper()
				var all []Result
				for _, op := range []string{OpKNN, OpKNNGraph} {
					for _, q := range objs[:5] {
						res, _, err := tree.Query(context.Background(), Query{Op: op, Q: q, K: 8})
						if err != nil {
							t.Fatal(err)
						}
						all = append(all, res...)
					}
				}
				return all
			}
			wantLen, wantAnswers := tree.Len(), answers()

			// Caching is off, so every leaf read reaches the faulty store.
			second, _ := nextLeaf(t, tree, 0)
			idxFault.FailPage(second, page.OpRead)
			if err := tc.run(tree); !errors.Is(err, page.ErrInjected) {
				t.Fatalf("err = %v, want the injected leaf fault", err)
			}
			idxFault.ClearPageFaults()

			if got := tree.Len(); got != wantLen {
				t.Fatalf("Len = %d after the failed call, want %d", got, wantLen)
			}
			if !tree.HasGraph() {
				t.Fatal("the failed call dropped the graph")
			}
			if tree.EfCurve() != nil {
				t.Fatal("the failed call stored an ef calibration")
			}
			got := answers()
			if len(got) != len(wantAnswers) {
				t.Fatalf("%d answers after the failed call, want %d", len(got), len(wantAnswers))
			}
			for i := range got {
				if got[i].Object.ID() != wantAnswers[i].Object.ID() || got[i].Dist != wantAnswers[i].Dist {
					t.Fatalf("answer %d changed: (%d, %v), want (%d, %v)", i,
						got[i].Object.ID(), got[i].Dist, wantAnswers[i].Object.ID(), wantAnswers[i].Dist)
				}
			}
		})
	}
}

// TestKeyRunScansSurfaceLeafReadFaults: Get, Delete and the durable Delete's
// base lookup scan the run of entries sharing one SFC key. When that run
// continues into a leaf that fails to read, each must return the fault, not
// ErrNotFound, and leave the tree's size as it was.
func TestKeyRunScansSurfaceLeafReadFaults(t *testing.T) {
	for _, tc := range []struct {
		name    string
		durable bool
		run     func(*Tree, metric.Object) error
	}{
		{"Get", false, func(tree *Tree, o metric.Object) error { _, err := tree.Get(o); return err }},
		{"Delete", false, func(tree *Tree, o metric.Object) error { return tree.Delete(o) }},
		{"DurableDelete", true, func(tree *Tree, o metric.Object) error { return tree.Delete(o) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// 600 copies of one vector share one key, a run longer than a leaf.
			objs := vectorSet(300, 5, 11)
			twin := objs[0].(*metric.Vector).Coords
			for i := 0; i < 600; i++ {
				objs = append(objs, metric.NewVector(uint64(10000+i), twin))
			}
			idxFault := page.NewFaultStore(page.NewMemStore(), -1)
			tree, err := Build(objs, Options{
				Distance: metric.L2(5), Codec: metric.VectorCodec{Dim: 5},
				IndexStore: idxFault, CacheSize: -1, Seed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer tree.Close()
			if tc.durable {
				dir := t.TempDir()
				log, err := wal.Open(filepath.Join(dir, WALDir), wal.Options{NoSync: true})
				if err != nil {
					t.Fatal(err)
				}
				tree.attachDurable(dir, 1, 0, log, DurableOptions{CompactThreshold: -1, NoSync: true})
			}
			// An absent ID with the twins' key: only the whole run can rule it out.
			absent := metric.NewVector(20000, twin)
			vec := make([]float64, len(tree.pivots))
			tree.phi(absent, vec)
			cells := make(sfc.Point, len(vec))
			tree.cells(vec, cells)
			key := tree.curve.Encode(cells)
			next, last := nextLeaf(t, tree, key)
			if last != key {
				t.Fatal("the twins' run ends in the leaf it starts in")
			}
			wantLen := tree.Len()

			idxFault.FailPage(next, page.OpRead)
			if err := tc.run(tree, absent); !errors.Is(err, page.ErrInjected) {
				t.Fatalf("err = %v, want the injected leaf fault", err)
			}
			idxFault.ClearPageFaults()
			if got := tree.Len(); got != wantLen {
				t.Fatalf("Len = %d after the failed call, want %d", got, wantLen)
			}
			if err := tc.run(tree, absent); !errors.Is(err, ErrNotFound) {
				t.Fatalf("after heal: err = %v, want ErrNotFound", err)
			}
		})
	}
}

// nextLeaf returns the page of the leaf a cursor from Seek(key) crosses into
// first, and the last key of the leaf that cursor starts on.
func nextLeaf(t *testing.T, tree *Tree, key uint64) (page.ID, uint64) {
	t.Helper()
	var (
		next  page.ID
		last  uint64
		found bool
	)
	err := tree.bpt.Walk(func(_ int, _ bptree.NodeRef, n *bptree.Node) error {
		// Walk visits children in order, so leaves come in chain order.
		if !n.Leaf || found || len(n.Keys) == 0 || n.Keys[len(n.Keys)-1] < key {
			return nil
		}
		if !n.HasNext() {
			return errors.New("the cursor starts on the last leaf")
		}
		next, last, found = n.Next, n.Keys[len(n.Keys)-1], true
		return nil
	})
	if err == nil && !found {
		err = errors.New("no leaf holds the key")
	}
	if err != nil {
		t.Fatal(err)
	}
	return next, last
}

func TestBuildSurfacesProbabilisticFaults(t *testing.T) {
	idxFault := page.NewFaultStore(page.NewMemStore(), -1)
	idxFault.SetProbability(page.OpWrite|page.OpAlloc, 0.3, 99)
	_, err := Build(vectorSet(400, 5, 31), Options{
		Distance: metric.L2(5), Codec: metric.VectorCodec{Dim: 5},
		IndexStore: idxFault, Seed: 7,
	})
	if !errors.Is(err, page.ErrInjected) {
		t.Fatalf("Build err = %v, want ErrInjected", err)
	}
}

func TestInsertSurfacesTargetedWriteFault(t *testing.T) {
	tree, idxFault, _, _, _ := faultyTree(t, 200)
	// Every index page write fails: the insert cannot complete silently.
	for id := 0; id < tree.idxCache.NumPages(); id++ {
		idxFault.FailPage(page.ID(id), page.OpWrite)
	}
	extra := vectorSet(1, 5, 77)[0].(*metric.Vector)
	extra.Id = 100000
	if err := tree.Insert(extra); !errors.Is(err, page.ErrInjected) {
		t.Fatalf("Insert err = %v, want ErrInjected", err)
	}
}

func TestVerifyIntegrityHealthy(t *testing.T) {
	tree, _, _, _, _ := faultyTree(t, 300)
	if err := tree.VerifyIntegrity(); err != nil {
		t.Fatalf("healthy tree failed verify: %v", err)
	}
}

func TestVerifyIntegrityPinpointsCorruptPages(t *testing.T) {
	tree, idxFault, dataFault, _, _ := faultyTree(t, 400)
	idxFault.FlipBit(1, 333)
	dataFault.FlipBit(2, 444)

	err := tree.VerifyIntegrity()
	if !errors.Is(err, page.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %T, want *IntegrityError", err)
	}
	foundIdx, foundData := false, false
	for _, c := range ie.Corruptions {
		if c.Component == "index-page" && c.HasPage && c.Page == 1 {
			foundIdx = true
		}
		if c.Component == "data-page" && c.HasPage && c.Page == 2 {
			foundData = true
		}
	}
	if !foundIdx || !foundData {
		t.Fatalf("findings missed a corrupt page (idx=%v data=%v): %v", foundIdx, foundData, err)
	}

	// Verification is read-only and the faults are in the medium, not the
	// tree: healing the medium makes verify pass again.
	idxFault.ClearFlips()
	dataFault.ClearFlips()
	if err := tree.VerifyIntegrity(); err != nil {
		t.Fatalf("verify after heal: %v", err)
	}
}

func TestVerifyIntegrityReportsAllFindings(t *testing.T) {
	tree, _, dataFault, _, _ := faultyTree(t, 400)
	pages := tree.raf.PagesUsed()
	if pages < 3 {
		t.Fatalf("test needs ≥3 data pages, got %d", pages)
	}
	for id := 0; id < 3; id++ {
		dataFault.FlipBit(page.ID(id), 5)
	}
	var ie *IntegrityError
	if err := tree.VerifyIntegrity(); !errors.As(err, &ie) {
		t.Fatalf("err = %v, want *IntegrityError", err)
	}
	distinct := map[page.ID]bool{}
	for _, c := range ie.Corruptions {
		if c.Component == "data-page" && c.HasPage {
			distinct[c.Page] = true
		}
	}
	// All three corrupt pages are reported, not just the first.
	for id := page.ID(0); id < 3; id++ {
		if !distinct[id] {
			t.Fatalf("finding for data page %d missing: %v", id, ie)
		}
	}
}

func TestVerifyIntegrityCatchesCounterDrift(t *testing.T) {
	tree, _, _, _, _ := faultyTree(t, 150)
	tree.count++ // simulate a meta/counter inconsistency
	defer func() { tree.count-- }()
	var ie *IntegrityError
	if err := tree.VerifyIntegrity(); !errors.As(err, &ie) {
		t.Fatalf("err = %v, want *IntegrityError", err)
	}
	found := false
	for _, c := range ie.Corruptions {
		if c.Component == "counters" {
			found = true
		}
	}
	if !found {
		t.Fatalf("counter drift not reported: %v", ie)
	}
}

// buildDir builds a tree whose page stores live as files in dir and persists
// it with SaveAtomic.
func buildDir(t *testing.T, dir string, objs []metric.Object, dist metric.DistanceFunc) *Tree {
	t.Helper()
	idx, err := page.NewFileStore(filepath.Join(dir, IndexPagesFile))
	if err != nil {
		t.Fatal(err)
	}
	data, err := page.NewFileStore(filepath.Join(dir, DataPagesFile))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(objs, Options{
		Distance: dist, Codec: metric.VectorCodec{Dim: 5},
		IndexStore: idx, DataStore: data, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.SaveAtomic(dir); err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestSaveAtomicLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	objs := vectorSet(500, 5, 41)
	dist := metric.L2(5)
	tree := buildDir(t, dir, objs, dist)
	want, err := tree.RangeQuery(objs[7], 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Load(dir, LoadOptions{Distance: dist, Codec: metric.VectorCodec{Dim: 5}})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(objs) {
		t.Fatalf("reloaded Len = %d, want %d", re.Len(), len(objs))
	}
	got, err := re.RangeQuery(objs[7], 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("reloaded query: %d results, want %d", len(got), len(want))
	}
	if err := re.VerifyIntegrity(); err != nil {
		t.Fatalf("verify after load: %v", err)
	}
}

func TestSaveAtomicSyncFailureLeavesMetaUntouched(t *testing.T) {
	dir := t.TempDir()
	objs := vectorSet(300, 5, 51)
	dist := metric.L2(5)

	idxFile, err := page.NewFileStore(filepath.Join(dir, IndexPagesFile))
	if err != nil {
		t.Fatal(err)
	}
	dataFile, err := page.NewFileStore(filepath.Join(dir, DataPagesFile))
	if err != nil {
		t.Fatal(err)
	}
	idxFault := page.NewFaultStore(idxFile, -1)
	dataFault := page.NewFaultStore(dataFile, -1)
	tree, err := Build(objs, Options{
		Distance: dist, Codec: metric.VectorCodec{Dim: 5},
		IndexStore: idxFault, DataStore: dataFault, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.SaveAtomic(dir); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(filepath.Join(dir, MetaFile))
	if err != nil {
		t.Fatal(err)
	}

	// A failed fsync must abort the save and leave the published meta as it
	// was — the index on disk stays the previous consistent version.
	idxFault.FailNextSyncs(1)
	if err := tree.SaveAtomic(dir); !errors.Is(err, page.ErrInjected) {
		t.Fatalf("SaveAtomic err = %v, want ErrInjected", err)
	}
	after, err := os.ReadFile(filepath.Join(dir, MetaFile))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("failed SaveAtomic mutated the published meta")
	}

	// Once syncs work again the save goes through.
	if err := tree.SaveAtomic(dir); err != nil {
		t.Fatal(err)
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteFileAtomic: the one file-publish helper replaces the content,
// leaves no staging file behind, and — when it fails before the rename —
// leaves the old content readable.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "placement.json")
	for _, content := range []string{"first\n", "second, longer\n", "3\n"} {
		if err := WriteFileAtomic(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != content {
			t.Fatalf("read back %q, %v; want %q", got, err, content)
		}
		ents, err := os.ReadDir(dir)
		if err != nil || len(ents) != 1 {
			t.Fatalf("directory holds %v (%v) after a publish, want the one file", ents, err)
		}
	}

	// A directory squatting on the staging name fails the publish before the
	// rename; the published content must be what it was.
	if err := os.Mkdir(path+tmpSuffix, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("never published\n")); err == nil {
		t.Fatal("publish through an unopenable staging file succeeded")
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "3\n" {
		t.Fatalf("failed publish left %q, %v; want the old content", got, err)
	}
}

func TestLoadRejectsCorruptMeta(t *testing.T) {
	dir := t.TempDir()
	objs := vectorSet(200, 5, 61)
	dist := metric.L2(5)
	tree := buildDir(t, dir, objs, dist)
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	metaPath := filepath.Join(dir, MetaFile)
	good, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	opts := LoadOptions{Distance: dist, Codec: metric.VectorCodec{Dim: 5}}

	corruptions := map[string][]byte{
		"truncated":     good[:len(good)/2],
		"empty":         {},
		"flipped-byte":  append([]byte{}, good...),
		"flipped-tail":  append([]byte{}, good...),
		"garbage":       []byte("not a meta file at all"),
		"footer-capped": good[:len(good)-1],
	}
	corruptions["flipped-byte"][len(good)/3] ^= 0x10
	corruptions["flipped-tail"][len(good)-2] ^= 0x01

	for name, bad := range corruptions {
		if err := os.WriteFile(metaPath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir, opts); !errors.Is(err, ErrCorruptMeta) {
			t.Fatalf("%s: Load err = %v, want ErrCorruptMeta", name, err)
		}
	}

	// Restoring the intact meta restores loadability.
	if err := os.WriteFile(metaPath, good, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Load(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	re.Close()
}

func TestLoadDetectsTornPageFile(t *testing.T) {
	dir := t.TempDir()
	objs := vectorSet(300, 5, 71)
	dist := metric.L2(5)
	tree := buildDir(t, dir, objs, dist)
	full, err := tree.RangeQuery(objs[0], 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte in the middle of the data file: Load still succeeds
	// (pages are validated lazily) but any query touching the page reports
	// corruption instead of returning wrong answers, and VerifyIntegrity
	// pinpoints it.
	dataPath := filepath.Join(dir, DataPagesFile)
	raw, err := os.ReadFile(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x80
	if err := os.WriteFile(dataPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Load(dir, LoadOptions{Distance: dist, Codec: metric.VectorCodec{Dim: 5}})
	if err != nil {
		// Acceptable: the torn page was needed during open (RAF tail).
		if !errors.Is(err, page.ErrCorrupt) {
			t.Fatalf("Load err = %v, want ErrCorrupt", err)
		}
		return
	}
	defer re.Close()

	res, qerr := re.RangeQuery(objs[0], 0.6)
	verr := re.VerifyIntegrity()
	if verr == nil {
		t.Fatal("VerifyIntegrity missed a flipped byte in the data file")
	}
	if !errors.Is(verr, page.ErrCorrupt) {
		t.Fatalf("verify err = %v, want ErrCorrupt", verr)
	}
	if qerr == nil && len(res) != len(full) {
		t.Fatalf("silent wrong answer: %d results, want %d", len(res), len(full))
	}
}

func TestRepairAfterMetaLoss(t *testing.T) {
	dir := t.TempDir()
	objs := vectorSet(350, 5, 81)
	dist := metric.L2(5)
	tree := buildDir(t, dir, objs, dist)
	q := objs[2]
	want := bfRange(objs, q, 0.5, dist)
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}

	// Destroy the meta entirely: only the RAF's self-describing records
	// survive, and repair rebuilds the whole index from them.
	if err := os.WriteFile(filepath.Join(dir, MetaFile), []byte("zapped"), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := LoadOptions{Distance: dist, Codec: metric.VectorCodec{Dim: 5}}
	rep, err := Repair(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Salvaged != len(objs) {
		t.Fatalf("salvaged %d objects, want %d", rep.Salvaged, len(objs))
	}

	re, err := Load(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.VerifyIntegrity(); err != nil {
		t.Fatalf("verify after repair: %v", err)
	}
	res, err := re.RangeQuery(q, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(want) {
		t.Fatalf("after repair: %d results, want %d", len(res), len(want))
	}
	for _, r := range res {
		if !want[r.Object.ID()] {
			t.Fatalf("repaired index returned wrong object %d", r.Object.ID())
		}
	}
}

func TestRepairDropsOnlyCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	objs := vectorSet(400, 5, 91)
	dist := metric.L2(5)
	tree := buildDir(t, dir, objs, dist)
	pages := tree.raf.PagesUsed()
	if pages < 4 {
		t.Fatalf("test needs several data pages, got %d", pages)
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt one data page in the middle of the file.
	dataPath := filepath.Join(dir, DataPagesFile)
	f, err := os.OpenFile(dataPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xde, 0xad, 0xbe, 0xef}, int64(pages/2)*page.Size+100); err != nil {
		t.Fatal(err)
	}
	f.Close()

	opts := LoadOptions{Distance: dist, Codec: metric.VectorCodec{Dim: 5}}
	rep, err := Repair(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Salvaged == 0 || rep.Salvaged >= len(objs) {
		t.Fatalf("salvaged %d of %d, want a strict subset", rep.Salvaged, len(objs))
	}
	if rep.Dropped == 0 {
		t.Fatal("no drops reported despite a corrupt page")
	}

	re, err := Load(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.VerifyIntegrity(); err != nil {
		t.Fatalf("verify after repair: %v", err)
	}
	if re.Len() != rep.Salvaged {
		t.Fatalf("reloaded Len = %d, report says %d", re.Len(), rep.Salvaged)
	}
	// Every object the repaired index returns is genuine.
	q := objs[2]
	want := bfRange(objs, q, 0.5, dist)
	res, err := re.RangeQuery(q, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if !want[r.Object.ID()] {
			t.Fatalf("repaired index returned wrong object %d", r.Object.ID())
		}
	}
}
