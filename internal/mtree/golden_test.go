package mtree

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"spbtree/internal/dataset"
	"spbtree/internal/page"
)

// golden is one row of counters frozen from the parent commit's two
// packages, internal/mtree (pivots 0) and internal/pmtree (pivots 4, the
// count it hard-coded), before the latter was folded into this one: bulk-load
// of the first 1 900 objects of the seeded dataset (n = 2 000, dataset seed
// 7, tree seed 3), insertion of the last 100, then a range query (radius 8 %
// of the metric's maximum) and an 8-NN query from each of the first 20
// objects, counters reset before every query. PA and compdists are sums;
// answers hashes every result's id and distance in order; image hashes every
// page of the store at the end, so a row also pins the node codec's bytes
// and the order in which the random stream was consumed.
type golden struct {
	dataset                          string
	pivots                           int
	buildPA, buildCD, buildStorage   int64
	insertPA, insertCD, finalStorage int64
	rangePA, rangeCD, knnPA, knnCD   int64
	answers, image                   uint64
}

var goldens = []golden{
	{"Color", 0, 551, 96750, 2256896, 431, 5050, 2256896, 892, 5278, 876, 6896, 0xf2cdf230fc7ca303, 0x7a304dfb27c9e404},
	{"Color", 4, 541, 85928, 2215936, 486, 4622, 2215936, 719, 3756, 705, 4266, 0xf2cdf230fc7ca303, 0x268b2b3fd7ef6ac6},
	{"Words", 0, 65, 123500, 266240, 240, 6500, 266240, 1060, 14956, 1188, 23517, 0x329e0d061c3c1796, 0xdbf2b4922fcf3f69},
	{"Words", 4, 307, 116055, 1257472, 391, 6371, 1269760, 1500, 5001, 2061, 14647, 0x808da0a665a13c5c, 0xdf5810b63b613996},
}

func TestGoldenCountsFromBothParents(t *testing.T) {
	for _, want := range goldens {
		t.Run(fmt.Sprintf("%s/pivots=%d", want.dataset, want.pivots), func(t *testing.T) {
			ds, ok := dataset.ByName(want.dataset, 2000, 7)
			if !ok {
				t.Fatalf("unknown dataset %q", want.dataset)
			}
			store := page.NewMemStore()
			tr, err := New(Options{Distance: ds.Distance, Codec: ds.Codec, Store: store, Seed: 3, Pivots: want.pivots})
			if err != nil {
				t.Fatal(err)
			}
			got := golden{dataset: want.dataset, pivots: want.pivots}

			tr.ResetStats()
			if err := tr.BulkLoad(ds.Objects[:1900]); err != nil {
				t.Fatal(err)
			}
			got.buildPA, got.buildCD = tr.TakeStats()
			got.buildStorage = tr.StorageBytes()

			tr.ResetStats()
			for _, o := range ds.Objects[1900:] {
				if err := tr.Insert(o); err != nil {
					t.Fatal(err)
				}
			}
			got.insertPA, got.insertCD = tr.TakeStats()
			got.finalStorage = tr.StorageBytes()

			answers := fnv.New64a()
			hashResults := func(res []Result) {
				var b [16]byte
				for _, x := range res {
					for i := 0; i < 8; i++ {
						b[i] = byte(x.Object.ID() >> (8 * i))
						b[8+i] = byte(math.Float64bits(x.Dist) >> (8 * i))
					}
					answers.Write(b[:])
				}
			}
			r := 0.08 * ds.Distance.MaxDistance()
			for _, q := range ds.Objects[:20] {
				tr.ResetStats()
				res, err := tr.RangeQuery(q, r)
				if err != nil {
					t.Fatal(err)
				}
				pa, cd := tr.TakeStats()
				got.rangePA += pa
				got.rangeCD += cd
				hashResults(res)
			}
			for _, q := range ds.Objects[:20] {
				tr.ResetStats()
				res, err := tr.KNN(q, 8)
				if err != nil {
					t.Fatal(err)
				}
				pa, cd := tr.TakeStats()
				got.knnPA += pa
				got.knnCD += cd
				hashResults(res)
			}
			got.answers = answers.Sum64()

			image := fnv.New64a()
			var buf [page.Size]byte
			for i := 0; i < store.NumPages(); i++ {
				if err := store.Read(page.ID(i), buf[:]); err != nil {
					t.Fatal(err)
				}
				image.Write(buf[:])
			}
			got.image = image.Sum64()

			if got != want {
				t.Errorf("counters moved\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
