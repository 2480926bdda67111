package mindex

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"spbtree/internal/bptree"
	"spbtree/internal/metric"
	"spbtree/internal/page"
)

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

func TestRangeMatchesBruteForce(t *testing.T) {
	objs := vectors(700, 6, 1)
	dist := metric.L2(6)
	tr, err := Build(objs, Options{Distance: dist, Codec: metric.VectorCodec{Dim: 6}, NumPivots: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		q := objs[rng.Intn(len(objs))]
		r := 0.1 + 0.3*rng.Float64()
		got, err := tr.RangeQuery(q, r)
		if err != nil {
			t.Fatal(err)
		}
		want := bfRange(objs, q, r, dist)
		if len(got) != len(want) {
			t.Fatalf("trial %d (r=%v): got %d, want %d", trial, r, len(got), len(want))
		}
		for _, res := range got {
			if !want[res.Object.ID()] {
				t.Fatalf("spurious result %d", res.Object.ID())
			}
		}
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	objs := vectors(500, 5, 3)
	dist := metric.L2(5)
	tr, err := Build(objs, Options{Distance: dist, Codec: metric.VectorCodec{Dim: 5}, NumPivots: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for _, k := range []int{1, 8, 32} {
		for trial := 0; trial < 6; trial++ {
			q := objs[rng.Intn(len(objs))]
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
	}
}

func TestEditDistanceWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	syl := []string{"an", "ber", "co", "du", "el", "fi", "gor", "hu"}
	objs := make([]metric.Object, 400)
	for i := range objs {
		var w string
		for k := 0; k < 2+rng.Intn(3); k++ {
			w += syl[rng.Intn(len(syl))]
		}
		objs[i] = metric.NewStr(uint64(i), w)
	}
	dist := metric.EditDistance{MaxLen: 12}
	tr, err := Build(objs, Options{Distance: dist, Codec: metric.StrCodec{}, NumPivots: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []float64{1, 2, 4} {
		got, err := tr.RangeQuery(objs[3], r)
		if err != nil {
			t.Fatal(err)
		}
		want := bfRange(objs, objs[3], r, dist)
		if len(got) != len(want) {
			t.Fatalf("r=%v: got %d, want %d", r, len(got), len(want))
		}
	}
}

func TestInsertThenQuery(t *testing.T) {
	objs := vectors(300, 4, 6)
	dist := metric.L2(4)
	tr, err := Build(objs[:200], Options{Distance: dist, Codec: metric.VectorCodec{Dim: 4}, NumPivots: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs[200:] {
		if err := tr.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	got, err := tr.RangeQuery(objs[0], 0.3)
	if err != nil {
		t.Fatal(err)
	}
	want := bfRange(objs, objs[0], 0.3, dist)
	if len(got) != len(want) {
		t.Fatalf("got %d, want %d", len(got), len(want))
	}
}

func TestPivotFilteringKeepsCompdistsLow(t *testing.T) {
	objs := vectors(2000, 8, 7)
	dist := metric.L2(8)
	tr, err := Build(objs, Options{Distance: dist, Codec: metric.VectorCodec{Dim: 8}})
	if err != nil {
		t.Fatal(err)
	}
	tr.ResetStats()
	if _, err := tr.RangeQuery(objs[0], 0.2); err != nil {
		t.Fatal(err)
	}
	pa, cd := tr.TakeStats()
	if cd >= int64(len(objs))/2 {
		t.Errorf("compdists %d: pivot filtering ineffective", cd)
	}
	if pa == 0 {
		t.Error("no page accesses counted")
	}
}

func TestStorageIncludesDistanceVectors(t *testing.T) {
	objs := vectors(1000, 4, 8)
	tr, err := Build(objs, Options{Distance: metric.L2(4), Codec: metric.VectorCodec{Dim: 4}, NumPivots: 20})
	if err != nil {
		t.Fatal(err)
	}
	// Each record carries 20 pivot distances (160 B) on top of a 32 B
	// vector: the data file alone must exceed 160 KB.
	if tr.StorageBytes() < 190_000 {
		t.Errorf("StorageBytes = %d, expected the distance-vector overhead", tr.StorageBytes())
	}
}

// TestScansSurfaceLeafReadFaults: a range or kNN scan that crosses into a
// leaf which fails to read returns the fault, not the answers found before it.
func TestScansSurfaceLeafReadFaults(t *testing.T) {
	// One pivot makes one cluster, so a full-radius ring is one scan that
	// starts on the first leaf and must cross into the second.
	objs := vectors(700, 6, 1)
	idx := page.NewFaultStore(page.NewMemStore(), -1)
	tr, err := Build(objs, Options{
		Distance: metric.L2(6), Codec: metric.VectorCodec{Dim: 6}, NumPivots: 1,
		IndexStore: idx, CacheSize: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var (
		second page.ID
		found  bool
	)
	err = tr.bpt.Walk(func(_ int, _ bptree.NodeRef, n *bptree.Node) error {
		// Walk visits children in order, so the first leaf is the chain's head.
		if n.Leaf && !found {
			second, found = n.Next, n.HasNext()
		}
		return nil
	})
	if err != nil || !found {
		t.Fatalf("no second leaf: %v", err)
	}
	idx.FailPage(second, page.OpRead)
	if _, err := tr.RangeQuery(objs[0], tr.dPlus); !errors.Is(err, page.ErrInjected) {
		t.Errorf("RangeQuery err = %v, want the injected leaf fault", err)
	}
	if _, err := tr.KNN(objs[0], len(objs)); !errors.Is(err, page.ErrInjected) {
		t.Errorf("KNN err = %v, want the injected leaf fault", err)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Build(nil, Options{Distance: metric.L2(2), Codec: metric.VectorCodec{Dim: 2}}); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := Build(vectors(5, 2, 1), Options{}); err == nil {
		t.Error("missing options accepted")
	}
	tr, err := Build(vectors(50, 2, 1), Options{Distance: metric.L2(2), Codec: metric.VectorCodec{Dim: 2}, NumPivots: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := tr.RangeQuery(vectors(1, 2, 9)[0], -1); err != nil || res != nil {
		t.Errorf("negative radius: %v %v", res, err)
	}
	if res, err := tr.KNN(vectors(1, 2, 9)[0], 0); err != nil || res != nil {
		t.Errorf("k=0: %v %v", res, err)
	}
}

// TestRecordCodecDoesNotRetain holds recordCodec to the metric.Codec contract
// "implementations must not retain data" (the RAF decodes out of pinned cache
// frames): a record decoded from a buffer re-encodes to the original bytes
// after the buffer has been scribbled over.
func TestRecordCodecDoesNotRetain(t *testing.T) {
	rec := &record{vec: []float64{0.5, 1.25}, obj: metric.NewStr(9, "borrowed")}
	want := rec.AppendBinary(nil)
	buf := append([]byte(nil), want...)
	got, err := recordCodec{dims: 2, inner: metric.StrCodec{}}.Decode(9, buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = ^buf[i]
	}
	if round := got.AppendBinary(nil); string(round) != string(want) {
		t.Errorf("recordCodec retains its input: re-encodes to %x, want %x", round, want)
	}
}
