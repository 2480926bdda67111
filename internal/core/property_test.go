package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"spbtree/internal/metric"
	"spbtree/internal/page"
	"spbtree/internal/sfc"
)

// TestLowerBoundProperty checks the foundation of every pruning lemma: the
// quantized mapped-space distance never exceeds the metric distance.
func TestLowerBoundProperty(t *testing.T) {
	objs := vectorSet(300, 5, 61)
	dist := metric.L2(5)
	tree, err := Build(objs, Options{Distance: dist, Codec: metric.VectorCodec{Dim: 5}, NumPivots: 4})
	if err != nil {
		t.Fatal(err)
	}
	n := len(tree.pivots)
	va := make([]float64, n)
	vb := make([]float64, n)
	ca := make(sfc.Point, n)
	cb := make(sfc.Point, n)
	f := func(ai, bi uint16) bool {
		a := objs[int(ai)%len(objs)]
		b := objs[int(bi)%len(objs)]
		tree.phi(a, va)
		tree.phi(b, vb)
		tree.cells(va, ca)
		tree.cells(vb, cb)
		// mindToCell(a's raw vector, b's quantized cell) must lower-bound
		// d(a, b); this is exactly what leaf-entry pruning relies on.
		lb := tree.mindToCell(va, cb)
		d := dist.Distance(a, b)
		return lb <= d+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	_ = ca
}

// TestRangeRegionContainsAnswers — Lemma 1 as a property: any object within
// r of q has its quantized cell inside the window of RR(q, r), on an exact
// grid (edit distance) and on a continuous one (L2).
func TestRangeRegionContainsAnswers(t *testing.T) {
	words, vecs := wordSet(300, 62), vectorSet(300, 4, 62)
	for _, c := range []struct {
		name   string
		objs   []metric.Object
		opts   Options
		radius func(uint8) float64
	}{
		{"edit", words, Options{Distance: metric.EditDistance{MaxLen: 24}, Codec: metric.StrCodec{}, NumPivots: 3},
			func(r uint8) float64 { return float64(r % 12) }},
		{"L2", vecs, Options{Distance: metric.L2(4), Codec: metric.VectorCodec{Dim: 4}, NumPivots: 3},
			func(r uint8) float64 { return float64(r) / 255 * 0.5 * metric.L2(4).MaxDistance() }},
	} {
		t.Run(c.name, func(t *testing.T) {
			objs, dist := c.objs, c.opts.Distance
			tree, err := Build(objs, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if tree.exact != (c.name == "edit") {
				t.Fatalf("%s: exact grid %v", c.name, tree.exact)
			}
			n := len(tree.pivots)
			qvec := make([]float64, n)
			ovec := make([]float64, n)
			cell := make(sfc.Point, n)
			f := func(qi, oi uint16, rRaw uint8) bool {
				q := objs[int(qi)%len(objs)]
				o := objs[int(oi)%len(objs)]
				r := c.radius(rRaw)
				if dist.Distance(q, o) > r {
					return true // nothing to check
				}
				tree.phi(q, qvec)
				tree.phi(o, ovec)
				tree.cells(ovec, cell)
				rr := tree.rangeWindow(qvec, r)
				return rr.admits(sfc.Pack(cell, tree.bits))
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRandomizedEquivalence drives random (dataset, radius, k) combinations
// through the index and a linear scan.
func TestRandomizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 6; trial++ {
		dim := 2 + rng.Intn(6)
		nObj := 100 + rng.Intn(300)
		pivots := 1 + rng.Intn(5)
		objs := vectorSet(nObj, dim, rng.Int63())
		dist := metric.L2(dim)
		tree, err := Build(objs, Options{
			Distance: dist, Codec: metric.VectorCodec{Dim: dim},
			NumPivots: pivots, Seed: rng.Int63() + 1,
			DeltaFrac: []float64{0.001, 0.005, 0.05}[rng.Intn(3)],
			Curve:     []sfc.Kind{sfc.Hilbert, sfc.ZOrder}[rng.Intn(2)],
		})
		if err != nil {
			t.Fatal(err)
		}
		for sub := 0; sub < 6; sub++ {
			q := objs[rng.Intn(nObj)]
			r := rng.Float64() * 0.4 * dist.MaxDistance()
			got, err := tree.RangeQuery(q, r)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(bfRange(objs, q, r, dist)) {
				t.Fatalf("trial %d: range mismatch at r=%v", trial, r)
			}
			k := 1 + rng.Intn(12)
			nn, err := tree.KNN(q, k)
			if err != nil {
				t.Fatal(err)
			}
			want := bfKNNDists(objs, q, k, dist)
			for i := range nn {
				if math.Abs(nn[i].Dist-want[i]) > 1e-9 {
					t.Fatalf("trial %d: kNN mismatch at k=%d", trial, k)
				}
			}
		}
	}
}

// TestBuildOnFaultyStores verifies construction surfaces injected I/O errors
// instead of mis-building silently.
func TestBuildOnFaultyStores(t *testing.T) {
	objs := vectorSet(200, 4, 64)
	for _, budget := range []int64{0, 1, 5} {
		_, err := Build(objs, Options{
			Distance:   metric.L2(4),
			Codec:      metric.VectorCodec{Dim: 4},
			NumPivots:  3,
			DataStore:  page.NewFaultStore(page.NewMemStore(), budget),
			IndexStore: page.NewMemStore(),
		})
		if !errors.Is(err, page.ErrInjected) {
			t.Errorf("data-store budget %d: Build error = %v, want ErrInjected", budget, err)
		}
	}
	// The 200-object B+-tree only needs a handful of index pages, so index
	// faults use tight budgets.
	for _, budget := range []int64{0, 1} {
		_, err := Build(objs, Options{
			Distance:   metric.L2(4),
			Codec:      metric.VectorCodec{Dim: 4},
			NumPivots:  3,
			DataStore:  page.NewMemStore(),
			IndexStore: page.NewFaultStore(page.NewMemStore(), budget),
		})
		if !errors.Is(err, page.ErrInjected) {
			t.Errorf("index-store budget %d: Build error = %v, want ErrInjected", budget, err)
		}
	}
}

// TestQueriesOnFaultyStores verifies queries report errors when pages die
// under them mid-flight: the tree is built against fault stores with an
// ample budget, which is then slashed before querying.
func TestQueriesOnFaultyStores(t *testing.T) {
	objs := vectorSet(400, 4, 65)
	idxFault := page.NewFaultStore(page.NewMemStore(), 1<<40)
	dataFault := page.NewFaultStore(page.NewMemStore(), 1<<40)
	tree, err := Build(objs, Options{
		Distance: metric.L2(4), Codec: metric.VectorCodec{Dim: 4},
		NumPivots: 3, IndexStore: idxFault, DataStore: dataFault, CacheSize: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := objs[0]
	idxFault.SetBudget(1)
	dataFault.SetBudget(0)
	if _, err := tree.RangeQuery(q, 0.3); !errors.Is(err, page.ErrInjected) {
		t.Errorf("RangeQuery under faults = %v", err)
	}
	if _, err := tree.KNN(q, 4); !errors.Is(err, page.ErrInjected) {
		t.Errorf("KNN under faults = %v", err)
	}
	if err := tree.Insert(objs[1]); !errors.Is(err, page.ErrInjected) {
		t.Errorf("Insert under faults = %v", err)
	}
	// Restore the budget: the tree must work again (errors did not corrupt
	// in-memory state beyond the failed operation).
	idxFault.SetBudget(1 << 40)
	dataFault.SetBudget(1 << 40)
	got, err := tree.RangeQuery(q, 0.3)
	if err != nil {
		t.Fatalf("query after budget restore: %v", err)
	}
	if len(got) == 0 {
		t.Error("no results after budget restore")
	}
}

// TestFileBackedEndToEnd runs the whole stack on real files.
func TestFileBackedEndToEnd(t *testing.T) {
	idx, err := page.NewTempFileStore()
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	data, err := page.NewTempFileStore()
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close()

	objs := vectorSet(800, 6, 66)
	dist := metric.L2(6)
	tree, err := Build(objs, Options{
		Distance: dist, Codec: metric.VectorCodec{Dim: 6},
		IndexStore: idx, DataStore: data,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 8; trial++ {
		q := objs[rng.Intn(len(objs))]
		got, err := tree.RangeQuery(q, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(bfRange(objs, q, 0.25, dist)) {
			t.Fatal("file-backed range mismatch")
		}
	}
	if idx.Stats().Accesses() == 0 || data.Stats().Accesses() == 0 {
		t.Error("file stores saw no traffic")
	}
}
