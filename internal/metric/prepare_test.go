package metric_test

import (
	"math"
	"testing"

	"spbtree/internal/dataset"
	"spbtree/internal/metric"
)

// TestPrepareInPlaceForFixedWidthDatasets guards against a silent fall back
// to the generic binding, which decodes every candidate it evaluates: for
// every dataset whose codec has a fixed width, Prepare returns a kernel that
// reads the payload in place and hands back no object, and re-preparing the
// kept kernel for another query of the same dimension allocates nothing. The
// generic binding's remaining users among the datasets are named below.
func TestPrepareInPlaceForFixedWidthDatasets(t *testing.T) {
	generic := map[string]bool{
		"DNA": true, // TrigramAngular over SeqCodec: a profile, not a layout
	}
	for _, name := range []string{"words", "color", "color32", "dna", "dnaedit", "signature", "synthetic", "synthetic32"} {
		ds, ok := dataset.ByName(name, 40, 3)
		if !ok {
			t.Fatalf("no dataset %q", name)
		}
		fixed := false
		switch ds.Codec.(type) {
		case metric.VectorCodec, metric.Vector32Codec:
			fixed = metric.VectorsInPlace
		case metric.BitStringCodec:
			fixed = true
		}
		if fixed && generic[ds.Name] {
			t.Errorf("%s has a fixed-width codec but is listed as a user of the generic binding", ds.Name)
		}
		q, o := ds.Objects[0], ds.Objects[1]
		prep := metric.Prepare(ds.Distance, ds.Codec, q, nil)
		_, _, obj, err := prep.PayloadAtMost(q, o.ID(), o.AppendBinary(nil), nil, math.Inf(1))
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		if got := obj != nil; got != generic[ds.Name] {
			t.Errorf("%s: Prepare returned %T, which hands back a decoded object: %v, want %v", ds.Name, prep, got, generic[ds.Name])
		}
		if !fixed {
			continue
		}
		i := 0
		if allocs := testing.AllocsPerRun(50, func() {
			i++
			prep = metric.Prepare(ds.Distance, ds.Codec, ds.Objects[i%len(ds.Objects)], prep)
		}); allocs != 0 {
			t.Errorf("%s: re-preparing the kept kernel allocated %v times per query, want 0", ds.Name, allocs)
		}
	}
}
