package mtree

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"spbtree/internal/dataset"
	"spbtree/internal/metric"
	"spbtree/internal/page"
)

// forBoth runs f once as the plain M-tree and once as the PM-tree with the
// pivot count the harness uses.
func forBoth(t *testing.T, f func(t *testing.T, pivots int)) {
	for _, pivots := range []int{0, 4} {
		t.Run(fmt.Sprintf("pivots=%d", pivots), func(t *testing.T) { f(t, pivots) })
	}
}

func vectors(n, dim int, seed int64) []metric.Object {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]metric.Object, n)
	for i := range objs {
		coords := make([]float64, dim)
		for j := range coords {
			coords[j] = rng.Float64()
		}
		objs[i] = metric.NewVector(uint64(i), coords)
	}
	return objs
}

func words(n int, seed int64) []metric.Object {
	rng := rand.New(rand.NewSource(seed))
	syl := []string{"an", "ber", "co", "du", "el", "fi", "gor", "hu", "in", "jo"}
	objs := make([]metric.Object, n)
	for i := range objs {
		var w string
		for k := 0; k < 2+rng.Intn(4); k++ {
			w += syl[rng.Intn(len(syl))]
		}
		objs[i] = metric.NewStr(uint64(i), w)
	}
	return objs
}

func duplicates(n int) []metric.Object {
	objs := make([]metric.Object, n)
	for i := range objs {
		objs[i] = metric.NewVector(uint64(i), []float64{0.5, 0.5})
	}
	return objs
}

func bfRange(objs []metric.Object, q metric.Object, r float64, d metric.DistanceFunc) map[uint64]bool {
	out := map[uint64]bool{}
	for _, o := range objs {
		if d.Distance(q, o) <= r {
			out[o.ID()] = true
		}
	}
	return out
}

func bfKNN(objs []metric.Object, q metric.Object, k int, d metric.DistanceFunc) []float64 {
	ds := make([]float64, len(objs))
	for i, o := range objs {
		ds[i] = d.Distance(q, o)
	}
	sort.Float64s(ds)
	if k > len(ds) {
		k = len(ds)
	}
	return ds[:k]
}

func buildBulk(t *testing.T, pivots int, objs []metric.Object, dist metric.DistanceFunc, codec metric.Codec) *Tree {
	t.Helper()
	tr, err := New(Options{Distance: dist, Codec: codec, Pivots: pivots})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(objs); err != nil {
		t.Fatal(err)
	}
	return tr
}

func checkRange(t *testing.T, tr *Tree, objs []metric.Object, q metric.Object, r float64, dist metric.DistanceFunc) {
	t.Helper()
	got, err := tr.RangeQuery(q, r)
	if err != nil {
		t.Fatal(err)
	}
	want := bfRange(objs, q, r, dist)
	if len(got) != len(want) {
		t.Fatalf("range r=%v: got %d, want %d", r, len(got), len(want))
	}
	for _, res := range got {
		if !want[res.Object.ID()] {
			t.Fatalf("range r=%v: spurious result %d", r, res.Object.ID())
		}
	}
}

func checkKNN(t *testing.T, tr *Tree, objs []metric.Object, q metric.Object, k int, dist metric.DistanceFunc) {
	t.Helper()
	got, err := tr.KNN(q, k)
	if err != nil {
		t.Fatal(err)
	}
	want := bfKNN(objs, q, k, dist)
	if len(got) != len(want) {
		t.Fatalf("k=%d: %d results, want %d", k, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Dist-want[i]) > 1e-9 {
			t.Fatalf("k=%d dist[%d] = %v, want %v", k, i, got[i].Dist, want[i])
		}
	}
}

func TestBulkLoadRangeMatchesBruteForce(t *testing.T) {
	forBoth(t, func(t *testing.T, pivots int) {
		objs := vectors(800, 6, 1)
		dist := metric.L2(6)
		tr := buildBulk(t, pivots, objs, dist, metric.VectorCodec{Dim: 6})
		if tr.Len() != 800 {
			t.Fatalf("Len = %d", tr.Len())
		}
		rng := rand.New(rand.NewSource(2))
		for trial := 0; trial < 20; trial++ {
			q := objs[rng.Intn(len(objs))]
			checkRange(t, tr, objs, q, 0.1+0.3*rng.Float64(), dist)
		}
	})
}

func TestBulkLoadKNNMatchesBruteForce(t *testing.T) {
	forBoth(t, func(t *testing.T, pivots int) {
		objs := vectors(600, 5, 3)
		dist := metric.L2(5)
		tr := buildBulk(t, pivots, objs, dist, metric.VectorCodec{Dim: 5})
		rng := rand.New(rand.NewSource(4))
		for _, k := range []int{1, 8, 32} {
			for trial := 0; trial < 8; trial++ {
				checkKNN(t, tr, objs, objs[rng.Intn(len(objs))], k, dist)
			}
		}
	})
}

// TestRangeMatchesBruteForce and TestKNNMatchesBruteForce repeat the two
// bulk-load checks on the paper's clustered Color vectors under the L5-norm,
// where hyper-rings have clusters to separate.
func TestRangeMatchesBruteForce(t *testing.T) {
	forBoth(t, func(t *testing.T, pivots int) {
		ds := dataset.Color(800, 1)
		tr := buildBulk(t, pivots, ds.Objects, ds.Distance, ds.Codec)
		rng := rand.New(rand.NewSource(2))
		for trial := 0; trial < 20; trial++ {
			q := ds.Objects[rng.Intn(len(ds.Objects))]
			checkRange(t, tr, ds.Objects, q, 0.05+0.2*rng.Float64(), ds.Distance)
		}
	})
}

func TestKNNMatchesBruteForce(t *testing.T) {
	forBoth(t, func(t *testing.T, pivots int) {
		ds := dataset.Color(600, 3)
		tr := buildBulk(t, pivots, ds.Objects, ds.Distance, ds.Codec)
		rng := rand.New(rand.NewSource(4))
		for _, k := range []int{1, 8, 32} {
			for trial := 0; trial < 8; trial++ {
				checkKNN(t, tr, ds.Objects, ds.Objects[rng.Intn(len(ds.Objects))], k, ds.Distance)
			}
		}
	})
}

func TestWordsWorkload(t *testing.T) {
	forBoth(t, func(t *testing.T, pivots int) {
		objs := words(500, 5)
		dist := metric.EditDistance{MaxLen: 24}
		tr := buildBulk(t, pivots, objs, dist, metric.StrCodec{})
		for _, r := range []float64{1, 2, 4} {
			checkRange(t, tr, objs, objs[3], r, dist)
		}
	})
}

func TestInsertOnlyTreeMatchesBruteForce(t *testing.T) {
	forBoth(t, func(t *testing.T, pivots int) {
		objs := words(400, 5)
		dist := metric.EditDistance{MaxLen: 24}
		tr, err := New(Options{Distance: dist, Codec: metric.StrCodec{}, Pivots: pivots})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range objs {
			if err := tr.Insert(o); err != nil {
				t.Fatal(err)
			}
		}
		if tr.Len() != 400 {
			t.Fatalf("Len = %d", tr.Len())
		}
		rng := rand.New(rand.NewSource(6))
		for trial := 0; trial < 15; trial++ {
			q := objs[rng.Intn(len(objs))]
			checkRange(t, tr, objs, q, float64(1+rng.Intn(3)), dist)
		}
		// kNN on the insert-built tree too.
		checkKNN(t, tr, objs, objs[0], 5, dist)
	})
}

func TestMixedBulkThenInsert(t *testing.T) {
	forBoth(t, func(t *testing.T, pivots int) {
		objs := vectors(500, 4, 7)
		dist := metric.L2(4)
		tr := buildBulk(t, pivots, objs[:300], dist, metric.VectorCodec{Dim: 4})
		for _, o := range objs[300:] {
			if err := tr.Insert(o); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(8))
		for trial := 0; trial < 10; trial++ {
			checkRange(t, tr, objs, objs[rng.Intn(len(objs))], 0.3, dist)
		}
	})
}

// TestInsertThenQuery is TestMixedBulkThenInsert on variable-size objects,
// with kNN: splits of nodes whose entries differ in width, and rings that
// inserts have expanded.
func TestInsertThenQuery(t *testing.T) {
	forBoth(t, func(t *testing.T, pivots int) {
		objs := words(500, 7)
		dist := metric.EditDistance{MaxLen: 24}
		tr := buildBulk(t, pivots, objs[:300], dist, metric.StrCodec{})
		for _, o := range objs[300:] {
			if err := tr.Insert(o); err != nil {
				t.Fatal(err)
			}
		}
		if tr.Len() != 500 {
			t.Fatalf("Len = %d", tr.Len())
		}
		rng := rand.New(rand.NewSource(8))
		for trial := 0; trial < 10; trial++ {
			q := objs[rng.Intn(len(objs))]
			checkRange(t, tr, objs, q, 2, dist)
			checkKNN(t, tr, objs, q, 6, dist)
		}
	})
}

func TestPruningSavesDistanceComputations(t *testing.T) {
	forBoth(t, func(t *testing.T, pivots int) {
		objs := vectors(2000, 8, 9)
		tr := buildBulk(t, pivots, objs, metric.L2(8), metric.VectorCodec{Dim: 8})
		tr.ResetStats()
		if _, err := tr.KNN(objs[0], 4); err != nil {
			t.Fatal(err)
		}
		_, cd := tr.TakeStats()
		if cd >= int64(len(objs)) {
			t.Errorf("kNN compdists %d >= |O|: no pruning", cd)
		}
		if cd == 0 {
			t.Error("no distance computations counted")
		}
	})
}

// TestHyperRingsBeatPlainMTree: the PM-tree's point — hyper-rings prune
// distance computations the plain M-tree must perform — at the price of a
// larger index.
func TestHyperRingsBeatPlainMTree(t *testing.T) {
	objs := vectors(3000, 8, 9)
	dist := metric.L2(8)
	pm := buildBulk(t, 4, objs, dist, metric.VectorCodec{Dim: 8})
	mt := buildBulk(t, 0, objs, dist, metric.VectorCodec{Dim: 8})
	if len(pm.Pivots()) != 4 || len(mt.Pivots()) != 0 {
		t.Fatalf("pivots: PM-tree %d, M-tree %d", len(pm.Pivots()), len(mt.Pivots()))
	}
	var pmCD, mtCD int64
	for qi := 0; qi < 20; qi++ {
		q := objs[qi*131]
		for _, c := range []struct {
			tr *Tree
			cd *int64
		}{{pm, &pmCD}, {mt, &mtCD}} {
			c.tr.ResetStats()
			if _, err := c.tr.RangeQuery(q, 0.25); err != nil {
				t.Fatal(err)
			}
			_, cd := c.tr.TakeStats()
			*c.cd += cd
		}
	}
	if pmCD >= mtCD {
		t.Errorf("PM-tree compdists %d should beat M-tree %d", pmCD, mtCD)
	}
	// Per-entry storage is strictly larger (rings + PD); total page counts
	// also depend on clustering luck, so compare the guaranteed quantity.
	if got, want := pm.leafEntryBytes(64), mt.leafEntryBytes(64)+8*4; got != want {
		t.Errorf("PM-tree leaf entry = %d bytes, want the M-tree's + PD = %d", got, want)
	}
	if got, want := pm.routingEntryBytes(64), mt.routingEntryBytes(64)+16*4; got != want {
		t.Errorf("PM-tree routing entry = %d bytes, want the M-tree's + HR = %d", got, want)
	}
}

func TestStatsAndStorage(t *testing.T) {
	forBoth(t, func(t *testing.T, pivots int) {
		objs := vectors(300, 6, 10)
		tr := buildBulk(t, pivots, objs, metric.L2(6), metric.VectorCodec{Dim: 6})
		tr.ResetStats()
		if _, err := tr.RangeQuery(objs[0], 0.2); err != nil {
			t.Fatal(err)
		}
		pa, cd := tr.TakeStats()
		if pa == 0 || cd == 0 {
			t.Errorf("stats pa=%d cd=%d", pa, cd)
		}
		if tr.StorageBytes() < int64(300*6*8) {
			t.Errorf("storage %d below raw payload", tr.StorageBytes())
		}
	})
}

func TestDegenerateDuplicates(t *testing.T) {
	// Many identical objects must not break bulk-load clustering.
	forBoth(t, func(t *testing.T, pivots int) {
		objs := duplicates(300)
		dist := metric.L2(2)
		tr := buildBulk(t, pivots, objs, dist, metric.VectorCodec{Dim: 2})
		checkRange(t, tr, objs, objs[0], 0, dist)
	})
}

func TestDuplicateHeavy(t *testing.T) {
	// Nor splits: every partition of an insert-built tree is one-sided.
	forBoth(t, func(t *testing.T, pivots int) {
		objs := duplicates(300)
		dist := metric.L2(2)
		tr, err := New(Options{Distance: dist, Codec: metric.VectorCodec{Dim: 2}, Pivots: pivots})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range objs {
			if err := tr.Insert(o); err != nil {
				t.Fatal(err)
			}
		}
		checkRange(t, tr, objs, objs[0], 0, dist)
		checkKNN(t, tr, objs, objs[0], 10, dist)
	})
}

func TestEmptyAndValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("missing options accepted")
	}
	if _, err := New(Options{Distance: metric.L2(2), Codec: metric.VectorCodec{Dim: 2}, Pivots: -1}); err == nil {
		t.Error("negative Pivots accepted")
	}
	forBoth(t, func(t *testing.T, pivots int) {
		tr, err := New(Options{Distance: metric.L2(2), Codec: metric.VectorCodec{Dim: 2}, Pivots: pivots})
		if err != nil {
			t.Fatal(err)
		}
		q := metric.NewVector(0, []float64{0, 0})
		if res, err := tr.RangeQuery(q, 1); err != nil || res != nil {
			t.Errorf("range on empty tree: %v %v", res, err)
		}
		if res, err := tr.KNN(q, 1); err != nil || res != nil {
			t.Errorf("kNN on empty tree: %v %v", res, err)
		}
		if err := tr.BulkLoad(nil); err != nil {
			t.Fatal(err)
		}
		if err := tr.Insert(q); err != nil {
			t.Fatal(err)
		}
		if err := tr.BulkLoad(vectors(5, 2, 1)); err == nil {
			t.Error("BulkLoad on non-empty tree accepted")
		}
	})
}

// TestValidationAndEmpty: a tree whose first load is one Insert selects its
// pivots from that object alone and stays correct as it grows.
func TestValidationAndEmpty(t *testing.T) {
	forBoth(t, func(t *testing.T, pivots int) {
		objs := vectors(200, 2, 1)
		dist := metric.L2(2)
		tr, err := New(Options{Distance: dist, Codec: metric.VectorCodec{Dim: 2}, Pivots: pivots})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Insert(objs[0]); err != nil {
			t.Fatal(err)
		}
		if got := len(tr.Pivots()); got > pivots || (pivots > 0 && got == 0) {
			t.Fatalf("%d pivots selected from one object, asked for %d", got, pivots)
		}
		checkKNN(t, tr, objs[:1], metric.NewVector(1000, []float64{0, 0}), 1, dist)
		for _, o := range objs[1:] {
			if err := tr.Insert(o); err != nil {
				t.Fatal(err)
			}
		}
		checkRange(t, tr, objs, objs[7], 0.2, dist)
		checkKNN(t, tr, objs, objs[7], 5, dist)
	})
}

func TestFileStoreBacked(t *testing.T) {
	forBoth(t, func(t *testing.T, pivots int) {
		fs, err := page.NewTempFileStore()
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		objs := vectors(400, 4, 11)
		dist := metric.L2(4)
		tr, err := New(Options{Distance: dist, Codec: metric.VectorCodec{Dim: 4}, Store: fs, Pivots: pivots})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.BulkLoad(objs); err != nil {
			t.Fatal(err)
		}
		checkRange(t, tr, objs, objs[0], 0.25, dist)
	})
}

// TestBulkLoadVariableSizeObjects reproduces the internal-node overflow that
// variable-length words triggered (node 771 overflows page): long routing
// objects must spill into an extra level instead of failing.
func TestBulkLoadVariableSizeObjects(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	objs := make([]metric.Object, 8000)
	for i := range objs {
		b := make([]byte, 1+rng.Intn(34))
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		objs[i] = metric.NewStr(uint64(i), string(b))
	}
	dist := metric.EditDistance{MaxLen: 34}
	forBoth(t, func(t *testing.T, pivots int) {
		tr := buildBulk(t, pivots, objs, dist, metric.StrCodec{})
		checkRange(t, tr, objs, objs[0], 2, dist)
		nn, err := tr.KNN(objs[1], 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(nn) != 10 {
			t.Fatalf("kNN returned %d", len(nn))
		}
	})
}

// TestCorruptPageIsAnErrorNotAPanic: an entry count or an objLen that would
// run the decode — the object, or the pivot distances and rings behind it —
// past the page end is reported, whatever the pivot count.
func TestCorruptPageIsAnErrorNotAPanic(t *testing.T) {
	forBoth(t, func(t *testing.T, pivots int) {
		objs := words(60, 3) // one leaf, which is the root
		store := page.NewMemStore()
		tr, err := New(Options{Distance: metric.EditDistance{MaxLen: 24}, Codec: metric.StrCodec{}, Store: store, Pivots: pivots})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.BulkLoad(objs); err != nil {
			t.Fatal(err)
		}
		var clean [page.Size]byte
		if err := store.Read(tr.rootPage, clean[:]); err != nil {
			t.Fatal(err)
		}
		if clean[0]&1 == 0 {
			t.Fatal("root is not a leaf; the offsets below assume one")
		}
		// The largest objLen whose object and parent distance still fit: what
		// runs past the page is the pivot distances behind them (or, with no
		// pivots, the next entry).
		pdOverrun := uint32(page.Size - nodeHeader - 12 - 8)
		for name, corrupt := range map[string]func(b []byte){
			"entry count": func(b []byte) { binary.LittleEndian.PutUint16(b[1:3], 0xFFFF) },
			"objLen past the page": func(b []byte) {
				binary.LittleEndian.PutUint32(b[nodeHeader+8:], page.Size)
			},
			"objLen huge": func(b []byte) {
				binary.LittleEndian.PutUint32(b[nodeHeader+8:], math.MaxUint32)
			},
			"pivot distances past the page": func(b []byte) {
				binary.LittleEndian.PutUint32(b[nodeHeader+8:], pdOverrun)
			},
		} {
			bad := clean
			corrupt(bad[:])
			if err := store.Write(tr.rootPage, bad[:]); err != nil {
				t.Fatal(err)
			}
			tr.ResetStats() // drop the cached clean page
			if _, err := tr.RangeQuery(objs[0], 1); err == nil {
				t.Errorf("%s: RangeQuery succeeded", name)
			}
			if _, err := tr.KNN(objs[0], 3); err == nil {
				t.Errorf("%s: KNN succeeded", name)
			}
			if err := tr.Insert(metric.NewStr(9999, "anber")); err == nil {
				t.Errorf("%s: Insert succeeded", name)
			}
		}
	})
}
