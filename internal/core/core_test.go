package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"spbtree/internal/metric"
	"spbtree/internal/sfc"
)

// --- test datasets -------------------------------------------------------

func vectorSet(n, dim int, seed int64) []metric.Object {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, 4)
	for i := range centers {
		c := make([]float64, dim)
		for j := range c {
			c[j] = rng.Float64()
		}
		centers[i] = c
	}
	objs := make([]metric.Object, n)
	for i := range objs {
		c := centers[i%len(centers)]
		coords := make([]float64, dim)
		for j := range coords {
			v := c[j] + 0.08*rng.NormFloat64()
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			coords[j] = v
		}
		objs[i] = metric.NewVector(uint64(i), coords)
	}
	return objs
}

func wordSet(n int, seed int64) []metric.Object {
	rng := rand.New(rand.NewSource(seed))
	syllables := []string{"ta", "ri", "mon", "el", "su", "qua", "de", "fo", "li", "ate", "ing", "er"}
	objs := make([]metric.Object, n)
	for i := range objs {
		var w string
		for k := 0; k < 2+rng.Intn(4); k++ {
			w += syllables[rng.Intn(len(syllables))]
		}
		objs[i] = metric.NewStr(uint64(i), w)
	}
	return objs
}

// vector32Set is vectorSet with every coordinate rounded to float32, the
// object kind the 8-wide kernels and Vector32Codec pages operate on.
func vector32Set(n, dim int, seed int64) []metric.Object {
	objs := vectorSet(n, dim, seed)
	for i, o := range objs {
		objs[i] = metric.NewVector32From64(o.ID(), o.(*metric.Vector).Coords)
	}
	return objs
}

func sigSet(n int, seed int64) []metric.Object {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]metric.Object, n)
	seedSig := make([]byte, 8)
	rng.Read(seedSig)
	for i := range objs {
		b := make([]byte, 8)
		copy(b, seedSig)
		for flips := rng.Intn(20); flips > 0; flips-- {
			bit := rng.Intn(64)
			b[bit/8] ^= 1 << (bit % 8)
		}
		objs[i] = metric.NewBitString(uint64(i), b)
	}
	return objs
}

// seqSet is n DNA-like sequences, four families of point-mutated copies: the
// object kind of TrigramAngular, a metric with neither a bounded nor a batch
// kernel.
func seqSet(n int, seed int64) []metric.Object {
	rng := rand.New(rand.NewSource(seed))
	roots := make([][]byte, 4)
	for i := range roots {
		roots[i] = make([]byte, 40+rng.Intn(20))
		for j := range roots[i] {
			roots[i][j] = "ACGT"[rng.Intn(4)]
		}
	}
	objs := make([]metric.Object, n)
	for i := range objs {
		s := append([]byte(nil), roots[i%len(roots)]...)
		for m := rng.Intn(12); m > 0; m-- {
			s[rng.Intn(len(s))] = "ACGT"[rng.Intn(4)]
		}
		objs[i] = metric.NewSeq(uint64(i), string(s))
	}
	return objs
}

// setSet is n element sets, four overlapping families with elements dropped
// and added at random: the object kind of Jaccard, the other kernel-less
// metric.
func setSet(n int, seed int64) []metric.Object {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]metric.Object, n)
	for i := range objs {
		var elems []uint64
		for e := uint64(0); e < 14; e++ {
			if rng.Intn(5) > 0 {
				elems = append(elems, uint64(i%4)*10+e)
			}
		}
		for x := rng.Intn(3); x > 0; x-- {
			elems = append(elems, 100+uint64(rng.Intn(40)))
		}
		objs[i] = metric.NewSet(uint64(i), elems)
	}
	return objs
}

// --- brute-force references ----------------------------------------------

func bfRange(objs []metric.Object, q metric.Object, r float64, d metric.DistanceFunc) map[uint64]bool {
	out := map[uint64]bool{}
	for _, o := range objs {
		if d.Distance(q, o) <= r {
			out[o.ID()] = true
		}
	}
	return out
}

func bfKNNDists(objs []metric.Object, q metric.Object, k int, d metric.DistanceFunc) []float64 {
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

// bfSorted is the brute-force scan as results: every object within limit of
// q at its exact distance, in (distance, ID) order.
func bfSorted(objs []metric.Object, q metric.Object, limit float64, d metric.DistanceFunc) []Result {
	var out []Result
	for _, o := range objs {
		if x := d.Distance(q, o); x <= limit {
			out = append(out, Result{Object: o, Dist: x, Exact: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return resultWorse(out[j], out[i]) })
	return out
}

func resultIDs(rs []Result) map[uint64]bool {
	out := map[uint64]bool{}
	for _, r := range rs {
		out[r.Object.ID()] = true
	}
	return out
}

// --- setups shared by equivalence tests -----------------------------------

type setup struct {
	name string
	objs []metric.Object
	dist metric.DistanceFunc
	opts Options
}

func setups() []setup {
	return []setup{
		{
			name: "vectors-L2-hilbert",
			objs: vectorSet(400, 6, 1),
			dist: metric.L2(6),
			opts: Options{Codec: metric.VectorCodec{Dim: 6}, NumPivots: 3},
		},
		{
			name: "vectors-L5-zorder",
			objs: vectorSet(300, 4, 2),
			dist: metric.L5(4),
			opts: Options{Codec: metric.VectorCodec{Dim: 4}, NumPivots: 4, Curve: sfc.ZOrder},
		},
		{
			name: "vectors32-L5-hilbert",
			objs: vector32Set(300, 12, 5),
			dist: metric.L5(12),
			opts: Options{Codec: metric.Vector32Codec{Dim: 12}, NumPivots: 3},
		},
		{
			name: "words-edit",
			objs: wordSet(300, 3),
			dist: metric.EditDistance{MaxLen: 24},
			opts: Options{Codec: metric.StrCodec{}, NumPivots: 3},
		},
		{
			name: "signatures-hamming",
			objs: sigSet(250, 4),
			dist: metric.Hamming{Bytes: 8},
			opts: Options{Codec: metric.BitStringCodec{Bytes: 8}, NumPivots: 3},
		},
		// The two metrics without a bounded or a batch kernel: their
		// candidates reach the block path through metric.Prepare's fallback.
		{
			name: "seqs-trigram",
			objs: seqSet(250, 6),
			dist: metric.TrigramAngular{},
			opts: Options{Codec: metric.SeqCodec{}, NumPivots: 3},
		},
		{
			name: "sets-jaccard",
			objs: setSet(250, 7),
			dist: metric.Jaccard{},
			opts: Options{Codec: metric.SetCodec{}, NumPivots: 3},
		},
	}
}

// setupNamed returns the setups() row called name; tests that need one
// particular workload pick it by name, not by position.
func setupNamed(t *testing.T, name string) setup {
	t.Helper()
	for _, s := range setups() {
		if s.name == name {
			return s
		}
	}
	t.Fatalf("no setup named %q", name)
	return setup{}
}

func buildSetup(t *testing.T, s setup) *Tree {
	t.Helper()
	opts := s.opts
	opts.Distance = s.dist
	tree, err := Build(s.objs, opts)
	if err != nil {
		t.Fatalf("%s: Build: %v", s.name, err)
	}
	return tree
}

// sameResults asserts two answer sets are byte-identical: same order, ids,
// distances and exactness flags.
func sameResults(t *testing.T, label string, want, got []Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Object.ID() != g.Object.ID() || w.Dist != g.Dist || w.Exact != g.Exact {
			t.Fatalf("%s: result %d: got (id=%d d=%v exact=%v), want (id=%d d=%v exact=%v)",
				label, i, g.Object.ID(), g.Dist, g.Exact, w.Object.ID(), w.Dist, w.Exact)
		}
	}
}

// sameVerification asserts the verification-stage counters of two executions
// of one query agree.
func sameVerification(t *testing.T, label string, want, got QueryStats) {
	t.Helper()
	if want.Verified != got.Verified ||
		want.Compdists != got.Compdists ||
		want.Lemma2Included != got.Lemma2Included ||
		want.Discarded != got.Discarded ||
		want.Abandoned != got.Abandoned ||
		want.TombstonesSkipped != got.TombstonesSkipped ||
		want.BatchedCandidates != got.BatchedCandidates ||
		want.Results != got.Results {
		t.Fatalf("%s: verification counters diverge:\nwant: verified=%d compdists=%d lemma2=%d discarded=%d abandoned=%d tombstones=%d batched=%d results=%d\ngot:  verified=%d compdists=%d lemma2=%d discarded=%d abandoned=%d tombstones=%d batched=%d results=%d",
			label,
			want.Verified, want.Compdists, want.Lemma2Included, want.Discarded, want.Abandoned, want.TombstonesSkipped, want.BatchedCandidates, want.Results,
			got.Verified, got.Compdists, got.Lemma2Included, got.Discarded, got.Abandoned, got.TombstonesSkipped, got.BatchedCandidates, got.Results)
	}
}

// --- tests -----------------------------------------------------------------

func TestRangeQueryMatchesBruteForce(t *testing.T) {
	for _, s := range setups() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			tree := buildSetup(t, s)
			dPlus := s.dist.MaxDistance()
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 25; trial++ {
				q := s.objs[rng.Intn(len(s.objs))]
				r := dPlus * (0.02 + 0.1*rng.Float64())
				got, err := tree.RangeQuery(q, r)
				if err != nil {
					t.Fatal(err)
				}
				want := bfRange(s.objs, q, r, s.dist)
				gotIDs := resultIDs(got)
				if len(gotIDs) != len(want) {
					t.Fatalf("trial %d (r=%v): got %d results, want %d", trial, r, len(gotIDs), len(want))
				}
				for id := range want {
					if !gotIDs[id] {
						t.Fatalf("trial %d: missing id %d", trial, id)
					}
				}
				// Lemma 2 inexact results must still carry a valid bound.
				for _, res := range got {
					if !res.Exact && res.Dist > r+1e-9 {
						t.Fatalf("inexact result bound %v exceeds r=%v", res.Dist, r)
					}
				}
			}
		})
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	for _, s := range setups() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			tree := buildSetup(t, s)
			rng := rand.New(rand.NewSource(11))
			for _, k := range []int{1, 4, 16} {
				for trial := 0; trial < 10; trial++ {
					q := s.objs[rng.Intn(len(s.objs))]
					got, err := tree.KNN(q, k)
					if err != nil {
						t.Fatal(err)
					}
					want := bfKNNDists(s.objs, q, k, s.dist)
					if len(got) != len(want) {
						t.Fatalf("k=%d: got %d results, want %d", k, len(got), len(want))
					}
					for i := range got {
						if diff := got[i].Dist - want[i]; diff > 1e-9 || diff < -1e-9 {
							t.Fatalf("k=%d trial %d: dist[%d] = %v, want %v", k, trial, i, got[i].Dist, want[i])
						}
					}
				}
			}
		})
	}
}

func TestGreedyTraversalSameResults(t *testing.T) {
	for _, s := range setups() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			tree := buildSetup(t, s)
			rng := rand.New(rand.NewSource(13))
			for trial := 0; trial < 10; trial++ {
				q := s.objs[rng.Intn(len(s.objs))]
				tree.SetTraversal(Incremental)
				inc, err := tree.KNN(q, 8)
				if err != nil {
					t.Fatal(err)
				}
				tree.SetTraversal(Greedy)
				gre, err := tree.KNN(q, 8)
				if err != nil {
					t.Fatal(err)
				}
				if len(inc) != len(gre) {
					t.Fatalf("incremental %d vs greedy %d results", len(inc), len(gre))
				}
				for i := range inc {
					if inc[i].Dist != gre[i].Dist {
						t.Fatalf("dist[%d]: incremental %v, greedy %v", i, inc[i].Dist, gre[i].Dist)
					}
				}
			}
		})
	}
}

func TestRangeQueryRadiusZeroAndNegative(t *testing.T) {
	s := setupNamed(t, "vectors-L2-hilbert")
	tree := buildSetup(t, s)
	q := s.objs[0]
	got, err := tree.RangeQuery(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := bfRange(s.objs, q, 0, s.dist)
	if len(resultIDs(got)) != len(want) {
		t.Errorf("r=0: got %d, want %d (self and duplicates)", len(got), len(want))
	}
	if got, _ := tree.RangeQuery(q, -1); got != nil {
		t.Errorf("negative radius returned %d results", len(got))
	}
}

func TestKNNWithKLargerThanDataset(t *testing.T) {
	s := setup{
		name: "tiny",
		objs: vectorSet(10, 3, 5),
		dist: metric.L2(3),
		opts: Options{Codec: metric.VectorCodec{Dim: 3}, NumPivots: 2},
	}
	tree := buildSetup(t, s)
	got, err := tree.KNN(s.objs[0], 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Errorf("k>n returned %d results, want 10", len(got))
	}
	if got, _ := tree.KNN(s.objs[0], 0); got != nil {
		t.Errorf("k=0 returned %d results", len(got))
	}
}

func TestDuplicateObjectsIndexedAndFound(t *testing.T) {
	objs := vectorSet(50, 3, 6)
	// Clone object 0 under fresh ids: same coordinates, distinct identity.
	base := objs[0].(*metric.Vector)
	for i := 0; i < 5; i++ {
		objs = append(objs, metric.NewVector(uint64(1000+i), append([]float64(nil), base.Coords...)))
	}
	tree, err := Build(objs, Options{
		Distance: metric.L2(3), Codec: metric.VectorCodec{Dim: 3}, NumPivots: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := tree.RangeQuery(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 6 {
		t.Errorf("r=0 around duplicated object: %d results, want >= 6", len(got))
	}
}

func TestInsertDeleteThenQuery(t *testing.T) {
	objs := vectorSet(200, 4, 7)
	half := objs[:100]
	tree, err := Build(half, Options{
		Distance: metric.L2(4), Codec: metric.VectorCodec{Dim: 4}, NumPivots: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs[100:] {
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Len() != 200 {
		t.Fatalf("Len = %d", tree.Len())
	}
	dist := metric.L2(4)
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		q := objs[rng.Intn(len(objs))]
		r := 0.25
		got, err := tree.RangeQuery(q, r)
		if err != nil {
			t.Fatal(err)
		}
		want := bfRange(objs, q, r, dist)
		if len(resultIDs(got)) != len(want) {
			t.Fatalf("after inserts: got %d, want %d", len(got), len(want))
		}
	}
	// Delete a quarter and re-check.
	deleted := map[uint64]bool{}
	for i := 0; i < 50; i++ {
		if err := tree.Delete(objs[i]); err != nil {
			t.Fatalf("Delete(%d): %v", i, err)
		}
		deleted[objs[i].ID()] = true
	}
	remaining := objs[50:]
	for trial := 0; trial < 10; trial++ {
		q := remaining[rng.Intn(len(remaining))]
		got, err := tree.RangeQuery(q, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		want := bfRange(remaining, q, 0.25, dist)
		gotIDs := resultIDs(got)
		if len(gotIDs) != len(want) {
			t.Fatalf("after deletes: got %d, want %d", len(gotIDs), len(want))
		}
		for id := range gotIDs {
			if deleted[id] {
				t.Fatalf("deleted object %d still returned", id)
			}
		}
	}
	if err := tree.Delete(objs[0]); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete = %v, want ErrNotFound", err)
	}
}

func TestGet(t *testing.T) {
	objs := wordSet(100, 8)
	tree, err := Build(objs, Options{
		Distance: metric.EditDistance{MaxLen: 24}, Codec: metric.StrCodec{}, NumPivots: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := tree.Get(objs[42])
	if err != nil {
		t.Fatal(err)
	}
	if got.(*metric.Str).S != objs[42].(*metric.Str).S {
		t.Error("Get returned a different object")
	}
	if _, err := tree.Get(metric.NewStr(99999, "absent-word")); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get missing = %v", err)
	}
}

func TestStatsCounting(t *testing.T) {
	s := setupNamed(t, "vectors-L2-hilbert")
	tree := buildSetup(t, s)
	tree.ResetStats()
	if st := tree.TakeStats(); st.PageAccesses != 0 || st.DistanceComputations != 0 {
		t.Fatalf("stats not reset: %+v", st)
	}
	if _, err := tree.KNN(s.objs[0], 8); err != nil {
		t.Fatal(err)
	}
	st := tree.TakeStats()
	if st.PageAccesses == 0 {
		t.Error("kNN performed no page accesses")
	}
	if st.DistanceComputations < int64(len(tree.Pivots())) {
		t.Errorf("kNN compdists %d < |P|", st.DistanceComputations)
	}
	// compdists must be far below a full scan thanks to pruning.
	if st.DistanceComputations >= int64(len(s.objs)) {
		t.Errorf("kNN compdists %d >= |O| = %d: index prunes nothing", st.DistanceComputations, len(s.objs))
	}
}

func TestBuildValidation(t *testing.T) {
	objs := vectorSet(10, 3, 9)
	if _, err := Build(objs, Options{Codec: metric.VectorCodec{Dim: 3}}); err == nil {
		t.Error("missing Distance accepted")
	}
	if _, err := Build(objs, Options{Distance: metric.L2(3)}); err == nil {
		t.Error("missing Codec accepted")
	}
	if _, err := Build(nil, Options{Distance: metric.L2(3), Codec: metric.VectorCodec{Dim: 3}}); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestManyPivotsBitBudget(t *testing.T) {
	// 9 pivots force a 7-bit-per-dimension grid; everything must still be
	// exact (pruning weakens, correctness holds).
	objs := vectorSet(200, 8, 10)
	dist := metric.L2(8)
	tree, err := Build(objs, Options{Distance: dist, Codec: metric.VectorCodec{Dim: 8}, NumPivots: 9})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Bits()*9 > 64 {
		t.Fatalf("bit budget exceeded: %d*9", tree.Bits())
	}
	q := objs[3]
	got, err := tree.RangeQuery(q, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	want := bfRange(objs, q, 0.3, dist)
	if len(resultIDs(got)) != len(want) {
		t.Fatalf("got %d, want %d", len(got), len(want))
	}
}

func TestDeltaAffectsCompdists(t *testing.T) {
	// Fig. 11: a coarser δ (larger cells) causes more collisions and thus
	// more distance computations.
	objs := vectorSet(600, 6, 12)
	dist := metric.L2(6)
	count := func(deltaFrac float64) int64 {
		tree, err := Build(objs, Options{
			Distance: dist, Codec: metric.VectorCodec{Dim: 6},
			NumPivots: 3, DeltaFrac: deltaFrac, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for i := 0; i < 20; i++ {
			tree.ResetStats()
			if _, err := tree.KNN(objs[i], 8); err != nil {
				t.Fatal(err)
			}
			total += tree.TakeStats().DistanceComputations
		}
		return total
	}
	fine := count(0.002)
	coarse := count(0.2)
	if fine >= coarse {
		t.Errorf("fine δ compdists %d should be below coarse δ %d", fine, coarse)
	}
}

func ExampleTree_RangeQuery() {
	words := []string{"citrate", "defoliates", "defoliation", "defoliated", "defoliating", "defoliate"}
	objs := make([]metric.Object, len(words))
	for i, w := range words {
		objs[i] = metric.NewStr(uint64(i), w)
	}
	tree, err := Build(objs, Options{
		Distance:  metric.EditDistance{MaxLen: 16},
		Codec:     metric.StrCodec{},
		NumPivots: 2,
	})
	if err != nil {
		panic(err)
	}
	res, err := tree.RangeQuery(metric.NewStr(100, "defoliate"), 1)
	if err != nil {
		panic(err)
	}
	var out []string
	for _, r := range res {
		out = append(out, r.Object.(*metric.Str).S)
	}
	sort.Strings(out)
	fmt.Println(out)
	// Output: [defoliate defoliated defoliates]
}

func TestBuildRejectsDistancesBeyondDPlus(t *testing.T) {
	// A misconfigured metric (MaxLen below the longest string) silently
	// breaks the lower-bound property; indexing must fail loudly instead.
	objs := []metric.Object{
		metric.NewStr(0, "short"),
		metric.NewStr(1, "a-string-much-longer-than-maxlen-allows"),
		metric.NewStr(2, "tiny"),
	}
	_, err := Build(objs, Options{
		Distance:  metric.EditDistance{MaxLen: 8}, // longest string is 39 chars
		Codec:     metric.StrCodec{},
		NumPivots: 2,
	})
	if err == nil {
		t.Fatal("Build accepted objects beyond the metric's MaxDistance")
	}
	// Insert path enforces the same guard.
	tree, err := Build(objs[:1], Options{
		Distance:  metric.EditDistance{MaxLen: 8},
		Codec:     metric.StrCodec{},
		NumPivots: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(objs[1]); err == nil {
		t.Fatal("Insert accepted an object beyond the metric's MaxDistance")
	}
}
