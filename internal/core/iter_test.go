package core

import (
	"math"
	"sort"
	"testing"

	"spbtree/internal/dataset"
	"spbtree/internal/metric"
	"spbtree/internal/page"
)

func TestNearestIterOrderAndCompleteness(t *testing.T) {
	objs := vectorSet(500, 5, 101)
	dist := metric.L2(5)
	tree, err := Build(objs, Options{Distance: dist, Codec: metric.VectorCodec{Dim: 5}, NumPivots: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := objs[17]
	it := tree.NearestIter(q)
	var dists []float64
	seen := map[uint64]bool{}
	for {
		res, ok := it.Next()
		if !ok {
			break
		}
		if seen[res.Object.ID()] {
			t.Fatalf("duplicate object %d", res.Object.ID())
		}
		seen[res.Object.ID()] = true
		dists = append(dists, res.Dist)
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if len(dists) != len(objs) {
		t.Fatalf("iterator yielded %d of %d objects", len(dists), len(objs))
	}
	if !sort.Float64sAreSorted(dists) {
		t.Fatal("distances not ascending")
	}
	// Matches brute-force order exactly.
	want := bfKNNDists(objs, q, len(objs), dist)
	for i := range dists {
		if math.Abs(dists[i]-want[i]) > 1e-9 {
			t.Fatalf("dist[%d] = %v, want %v", i, dists[i], want[i])
		}
	}
}

func TestNearestIterPrefixMatchesKNN(t *testing.T) {
	objs := wordSet(300, 102)
	dist := metric.EditDistance{MaxLen: 24}
	tree, err := Build(objs, Options{Distance: dist, Codec: metric.StrCodec{}, NumPivots: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := objs[5]
	knn, err := tree.KNN(q, 12)
	if err != nil {
		t.Fatal(err)
	}
	it := tree.NearestIter(q)
	for i := 0; i < 12; i++ {
		res, ok := it.Next()
		if !ok {
			t.Fatalf("iterator ended at %d", i)
		}
		if res.Dist != knn[i].Dist {
			t.Fatalf("prefix dist[%d] = %v, KNN %v", i, res.Dist, knn[i].Dist)
		}
	}
}

func TestNearestIterLazyIO(t *testing.T) {
	// Consuming only a few neighbors must touch far fewer pages than a full
	// scan would.
	objs := vectorSet(2000, 6, 103)
	tree, err := Build(objs, Options{Distance: metric.L2(6), Codec: metric.VectorCodec{Dim: 6}, NumPivots: 4})
	if err != nil {
		t.Fatal(err)
	}
	tree.ResetStats()
	it := tree.NearestIter(objs[0])
	for i := 0; i < 5; i++ {
		if _, ok := it.Next(); !ok {
			t.Fatal("iterator ended early")
		}
	}
	st := tree.TakeStats()
	if st.DistanceComputations > 400 {
		t.Errorf("5 neighbors cost %d compdists — iterator not lazy", st.DistanceComputations)
	}
}

func TestNearestIterEmptyAndError(t *testing.T) {
	objs := vectorSet(100, 3, 104)
	idxFault := page.NewFaultStore(page.NewMemStore(), 1<<40)
	tree, err := Build(objs, Options{
		Distance: metric.L2(3), Codec: metric.VectorCodec{Dim: 3},
		NumPivots: 2, IndexStore: idxFault, DataStore: page.NewMemStore(), CacheSize: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	idxFault.SetBudget(0)
	it := tree.NearestIter(objs[0])
	if _, ok := it.Next(); ok {
		t.Error("iterator yielded under fault")
	}
	if it.Err() == nil {
		t.Error("iterator swallowed the fault")
	}
	// Next after error stays terminated.
	if _, ok := it.Next(); ok {
		t.Error("iterator resumed after error")
	}
}

func TestRangeCountMatchesRangeQuery(t *testing.T) {
	for _, s := range setups() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			tree := buildSetup(t, s)
			dPlus := s.dist.MaxDistance()
			for qi := 0; qi < 10; qi++ {
				q := s.objs[qi*13]
				for _, frac := range []float64{0.02, 0.08, 0.3} {
					r := frac * dPlus
					res, err := tree.RangeQuery(q, r)
					if err != nil {
						t.Fatal(err)
					}
					cnt, err := tree.RangeCount(q, r)
					if err != nil {
						t.Fatal(err)
					}
					if cnt != len(res) {
						t.Fatalf("RangeCount=%d, RangeQuery=%d at r=%v", cnt, len(res), r)
					}
				}
			}
		})
	}
}

func TestRangeCountCheaperThanQuery(t *testing.T) {
	// At large radii Lemma 2 fires often; counting skips those RAF reads.
	objs := wordSet(800, 105)
	dist := metric.EditDistance{MaxLen: 24}
	tree, err := Build(objs, Options{Distance: dist, Codec: metric.StrCodec{}, NumPivots: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := objs[0]
	tree.ResetStats()
	if _, err := tree.RangeQuery(q, 10); err != nil {
		t.Fatal(err)
	}
	full := tree.TakeStats()
	tree.ResetStats()
	if _, err := tree.RangeCount(q, 10); err != nil {
		t.Fatal(err)
	}
	count := tree.TakeStats()
	if count.PageAccesses > full.PageAccesses {
		t.Errorf("count PA %d > query PA %d", count.PageAccesses, full.PageAccesses)
	}
	if count.DistanceComputations > full.DistanceComputations {
		t.Errorf("count compdists %d > query %d", count.DistanceComputations, full.DistanceComputations)
	}
}

func TestRangeIDs(t *testing.T) {
	objs := vectorSet(200, 4, 106)
	dist := metric.L2(4)
	tree, err := Build(objs, Options{Distance: dist, Codec: metric.VectorCodec{Dim: 4}, NumPivots: 3})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := tree.RangeIDs(objs[0], 0.3)
	if err != nil {
		t.Fatal(err)
	}
	want := bfRange(objs, objs[0], 0.3, dist)
	if len(ids) != len(want) {
		t.Fatalf("got %d ids, want %d", len(ids), len(want))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("ids not sorted")
		}
	}
}

func TestRebuildCompacts(t *testing.T) {
	objs := vectorSet(600, 4, 107)
	dist := metric.L2(4)
	tree, err := Build(objs[:400], Options{Distance: dist, Codec: metric.VectorCodec{Dim: 4}, NumPivots: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Churn: insert the rest, delete a third.
	for _, o := range objs[400:] {
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		if err := tree.Delete(objs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if tree.FragmentationBytes() == 0 {
		t.Error("no fragmentation reported after 200 deletes")
	}
	sizeBefore := tree.StorageBytes()

	if err := tree.Rebuild(nil, nil); err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 400 {
		t.Fatalf("Len after rebuild = %d", tree.Len())
	}
	if tree.FragmentationBytes() != 0 {
		t.Errorf("fragmentation after rebuild = %d", tree.FragmentationBytes())
	}
	if tree.StorageBytes() >= sizeBefore {
		t.Errorf("rebuild did not shrink storage: %d -> %d", sizeBefore, tree.StorageBytes())
	}
	// Queries remain exact.
	live := objs[200:]
	for qi := 0; qi < 10; qi++ {
		q := live[qi*31%len(live)]
		got, err := tree.RangeQuery(q, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(bfRange(live, q, 0.25, dist)) {
			t.Fatal("rebuilt tree returns wrong results")
		}
	}
	// Mutations still work on the rebuilt tree.
	if err := tree.Insert(objs[0]); err != nil {
		t.Fatal(err)
	}
	if err := tree.Delete(objs[0]); err != nil {
		t.Fatal(err)
	}
}

// TestNearestIterBatchMatchesScalar pins the incremental scan's block
// verification against the scalar reference it has to reproduce — a
// brute-force scan of the live set sorted by distance: the full emitted
// sequence — object IDs, distances, ascending order (objects at one distance
// may come in any order), and length — is identical, across every setup, with
// and without a distance limit, and on a durable tree whose write buffer holds
// inserts and tombstones.
func TestNearestIterBatchMatchesScalar(t *testing.T) {
	compare := func(label string, tree *Tree, live []metric.Object, dist metric.DistanceFunc, q metric.Object, limit float64) {
		t.Helper()
		it := tree.NearestIterWithin(q, limit)
		defer it.Close()
		var got []Result
		for r, ok := it.Next(); ok; r, ok = it.Next() {
			if n := len(got); n > 0 && r.Dist < got[n-1].Dist {
				t.Fatalf("%s: emission %d at distance %v after one at %v", label, n, r.Dist, got[n-1].Dist)
			}
			got = append(got, r)
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
		sort.Slice(got, func(i, j int) bool { return resultWorse(got[j], got[i]) })
		sameResults(t, label, bfSorted(live, q, limit, dist), got)
	}

	for _, s := range setups() {
		tree := buildSetup(t, s)
		for _, limit := range []float64{math.Inf(1), 0.3 * s.dist.MaxDistance()} {
			compare(s.name, tree, s.objs, s.dist, s.objs[2], limit)
		}
		tree.Close()
	}

	// Durable tree: buffered inserts join the scan, tombstoned base records
	// are skipped.
	objs := vectorSet(400, 5, 131)
	dist := metric.L2(5)
	tree, err := CreateDurable(t.TempDir(), objs[:350], Options{
		Distance: dist, Codec: metric.VectorCodec{Dim: 5}, Seed: 7,
	}, DurableOptions{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	for _, o := range objs[350:] {
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	deleted := map[uint64]bool{}
	for i := 0; i < 40; i++ {
		if err := tree.Delete(objs[i*7]); err != nil {
			t.Fatal(err)
		}
		deleted[objs[i*7].ID()] = true
	}
	var live []metric.Object
	for _, o := range objs {
		if !deleted[o.ID()] {
			live = append(live, o)
		}
	}
	compare("durable-delta", tree, live, dist, objs[5], math.Inf(1))
	compare("durable-delta-limited", tree, live, dist, objs[5], 0.25*dist.MaxDistance())
}

// TestNearestIterArenaBounded: an iterator with no limit copies every leaf
// run it starts whole (DESIGN.md §9.7), so a full scan would keep a copy of
// every record it reached; instead a block's first pop empties an arena grown
// past maxArenaChunks. Over a full scan of 40 000 Color32 objects — some
// 3 MB of records — the arena must stay within twice that cap, be emptied on
// the way, and the scan must still emit every object in brute-force order.
func TestNearestIterArenaBounded(t *testing.T) {
	const n = 40000
	ds, _ := dataset.ByName("color32", n, 1)
	tree, err := Build(ds.Objects, Options{Distance: ds.Distance, Codec: ds.Codec, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	q := ds.Objects[3]
	it := tree.NearestIter(q)
	defer it.Close()
	var dists []float64
	last, peak, emptied := 0, 0, 0
	for {
		res, ok := it.Next()
		if !ok {
			break
		}
		dists = append(dists, res.Dist)
		chunks := len(it.sc.pq.recs.chunks)
		if chunks < last { // only emptying shrinks the arena
			emptied++
		}
		last, peak = chunks, max(peak, chunks)
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	t.Logf("arena peak %d chunks of %d KB, emptied %d times", peak, chunkSize>>10, emptied)
	if peak > 2*maxArenaChunks {
		t.Errorf("arena peaked at %d chunks, more than twice the %d-chunk cap", peak, maxArenaChunks)
	}
	if emptied == 0 {
		t.Error("a full scan never emptied its arena")
	}
	want := bfKNNDists(ds.Objects, q, n, ds.Distance)
	if len(dists) != len(want) {
		t.Fatalf("iterator yielded %d of %d objects", len(dists), len(want))
	}
	for i := range dists {
		if dists[i] != want[i] {
			t.Fatalf("dist[%d] = %v, want %v", i, dists[i], want[i])
		}
	}
}
