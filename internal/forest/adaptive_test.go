package forest

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"spbtree/internal/core"
	"spbtree/internal/dataset"
	"spbtree/internal/metric"
)

// words generates a seeded clustered word set with IDs starting at base.
func words(n int, seed int64, base uint64) []metric.Object {
	rng := rand.New(rand.NewSource(seed))
	syllables := []string{"ta", "ri", "mon", "el", "su", "qua", "de", "fo", "li", "ate", "ing", "er"}
	objs := make([]metric.Object, n)
	for i := range objs {
		var b strings.Builder
		for k := 0; k < 2+rng.Intn(4); k++ {
			b.WriteString(syllables[rng.Intn(len(syllables))])
		}
		objs[i] = metric.NewStr(base+uint64(i), b.String())
	}
	return objs
}

// flatGather is the reference Forest.Query is checked against: every shard
// answers q on its own and the answers merge. It stages nothing and shares
// only the merge with Forest.Query.
func flatGather(t *testing.T, f *Forest, q core.Query) ([]core.Result, core.QueryStats) {
	t.Helper()
	per := make([][]core.Result, f.NumShards())
	var total core.QueryStats
	for i, sh := range f.Shards() {
		res, qs, err := sh.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		per[i] = res
		total.Merge(qs)
	}
	return core.MergeResults(q.Op, q.K, per), total
}

// planned runs q through Forest.Query, the subject of every test here.
func planned(t *testing.T, f *Forest, q core.Query) ([]core.Result, core.QueryStats) {
	t.Helper()
	res, qs, err := f.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return res, qs
}

// TestAdaptiveEquivalenceMatrix is the §15.6 CI matrix: the staged
// scatter versus the flat reference gather, on continuous and discrete
// metrics, for range and kNN. Byte identity, not set
// equality.
func TestAdaptiveEquivalenceMatrix(t *testing.T) {
	type space struct {
		name  string
		objs  []metric.Object
		dist  metric.DistanceFunc
		codec metric.Codec
	}
	spaces := []space{
		{"l2", vectors(1200, 5, 31, 0), metric.L2(5), metric.VectorCodec{Dim: 5}},
		{"edit", words(1200, 32, 0), metric.EditDistance{MaxLen: 24}, metric.StrCodec{}},
	}
	for _, sp := range spaces {
		maxD := sp.dist.MaxDistance()
		f, err := Build(sp.objs, Options{
			Tree: core.Options{
				Distance: sp.dist, Codec: sp.codec, Seed: 2,
			},
			Shards: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		label := sp.name
		for trial := 0; trial < 8; trial++ {
			rq := core.Query{Op: core.OpRange, Q: sp.objs[trial*13], Radius: (0.05 + 0.03*float64(trial)) * maxD, Timed: true}
			kq := core.Query{Op: core.OpKNN, Q: sp.objs[trial*13], K: 10, Timed: true}
			ar, _ := planned(t, f, rq)
			ak, aqs := planned(t, f, kq)
			fr, _ := flatGather(t, f, rq)
			fk, _ := flatGather(t, f, kq)
			sameResultSlices(t, label+"/range", fr, ar)
			sameResultSlices(t, label+"/knn", fk, ak)
			if !aqs.Plan.Staged || aqs.Plan.ShardsTotal != 5 {
				t.Fatalf("%s: kNN plan not staged: %+v", label, aqs.Plan)
			}
		}
	}
}

// TestStagedFixedOrder pins the one shard rule (DESIGN.md §15.4) by its
// distance count, at both ends of Parallel. A kNN costs exactly shard 0's
// plain kNN plus every other shard's kNN bounded by shard 0's k-th distance,
// and costs the same on every run: the visit depends on nothing but the
// shard index. A range query visits every shard, so it costs what the flat
// gather does.
func TestStagedFixedOrder(t *testing.T) {
	objs := words(1500, 33, 0)
	for _, parallel := range []int{0, 1} {
		f, err := Build(objs, Options{
			Tree:     core.Options{Distance: metric.EditDistance{MaxLen: 24}, Codec: metric.StrCodec{}, Seed: 2},
			Shards:   4,
			Parallel: parallel,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for trial := 0; trial < 6; trial++ {
			q := objs[trial*211]
			kq := core.Query{Op: core.OpKNN, Q: q, K: 10}
			_, first := planned(t, f, kq)
			_, again := planned(t, f, kq)
			if first.Compdists != again.Compdists {
				t.Fatalf("parallel %d: the same kNN cost %d then %d compdists", parallel, first.Compdists, again.Compdists)
			}
			res0, qs0, err := f.Shards()[0].Query(ctx, kq)
			if err != nil {
				t.Fatal(err)
			}
			if len(res0) != kq.K {
				t.Fatalf("shard 0 answered %d of k=%d", len(res0), kq.K)
			}
			want := qs0.Compdists
			bq := kq
			bq.Bounded, bq.Bound = true, res0[kq.K-1].Dist
			for _, sh := range f.Shards()[1:] {
				_, qs, err := sh.Query(ctx, bq)
				if err != nil {
					t.Fatal(err)
				}
				want += qs.Compdists
			}
			if first.Compdists != want {
				t.Fatalf("parallel %d: staged kNN cost %d compdists, shard 0 then the rest at its bound %d", parallel, first.Compdists, want)
			}

			rq := core.Query{Op: core.OpRange, Q: q, Radius: 3}
			_, rqs := planned(t, f, rq)
			_, fqs := flatGather(t, f, rq)
			if rqs.Compdists != fqs.Compdists {
				t.Fatalf("parallel %d: range cost %d compdists, the flat gather %d", parallel, rqs.Compdists, fqs.Compdists)
			}
		}
	}
}

// TestStagedKNNSavesWork: the staged scatter's bound never costs distance
// computations against the flat reference, and under an expensive discrete
// metric (DNAEdit) it must cut them — the point of §15.4 — while returning
// the identical answer (checked in the matrix test; here we pin the savings
// so a silent fallback to flat cannot pass).
func TestStagedKNNSavesWork(t *testing.T) {
	dna := dataset.DNAEdit(600, 37)
	for _, sp := range []struct {
		name   string
		objs   []metric.Object
		tree   core.Options
		shards int
		strict bool
	}{
		{"l2", vectors(3000, 6, 37, 0), core.Options{Distance: metric.L2(6), Codec: metric.VectorCodec{Dim: 6}, Seed: 2}, 6, false},
		{"dnaedit", dna.Objects, core.Options{Distance: dna.Distance, Codec: dna.Codec, Seed: 2}, 4, true},
	} {
		f, err := Build(sp.objs, Options{Tree: sp.tree, Shards: sp.shards})
		if err != nil {
			t.Fatal(err)
		}
		var staged, flat int64
		for trial := 0; trial < 12; trial++ {
			q := core.Query{Op: core.OpKNN, Q: sp.objs[(trial*101)%len(sp.objs)], K: 10, Timed: true}
			_, aqs := planned(t, f, q)
			_, fqs := flatGather(t, f, q)
			staged += aqs.Compdists
			flat += fqs.Compdists
		}
		if staged > flat || sp.strict && staged == flat {
			t.Fatalf("%s: staged scatter saved nothing: staged=%d flat=%d compdists", sp.name, staged, flat)
		}
	}
}

// TestAdaptiveAfterWrites: equivalence must survive mutation — the bound
// shard 0 hands on covers its buffered inserts, and staging keeps working.
func TestAdaptiveAfterWrites(t *testing.T) {
	objs := vectors(1000, 5, 39, 0)
	dist := metric.L2(5)
	f, err := Build(objs, Options{
		Tree:   core.Options{Distance: dist, Codec: metric.VectorCodec{Dim: 5}, Seed: 2},
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	extra := vectors(100, 5, 40, 500000)
	for _, o := range extra {
		tree := f.Shards()[PartitionOf(o.ID(), 4)]
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	all := append(append([]metric.Object{}, objs...), extra...)
	for trial := 0; trial < 6; trial++ {
		kq := core.Query{Op: core.OpKNN, Q: all[trial*171], K: 8, Timed: true}
		rq := core.Query{Op: core.OpRange, Q: all[trial*171], Radius: 0.12 * dist.MaxDistance()}
		ak, aqs := planned(t, f, kq)
		ar, _ := planned(t, f, rq)
		fk, _ := flatGather(t, f, kq)
		fr, _ := flatGather(t, f, rq)
		sameResultSlices(t, "knn-after-writes", fk, ak)
		sameResultSlices(t, "range-after-writes", fr, ar)
		if !aqs.Plan.Staged {
			t.Fatalf("kNN after writes not staged: %+v", aqs.Plan)
		}
	}
}

func sameResultSlices(t *testing.T, label string, want, got []core.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d results", label, len(want), len(got))
	}
	for i := range want {
		if want[i].Object.ID() != got[i].Object.ID() || want[i].Dist != got[i].Dist {
			t.Fatalf("%s: result %d: want (id=%d d=%v), got (id=%d d=%v)",
				label, i, want[i].Object.ID(), want[i].Dist, got[i].Object.ID(), got[i].Dist)
		}
	}
}
