package core

import (
	"encoding/binary"
	"flag"
	"fmt"
	"go/format"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// updateGoldens rewrites goldens_test.go from what the golden-checked tests
// observe in this run:
//
//	go test -run 'TestBatchMatchesScalar|TestResolveBlockReadFailure' ./internal/core -update-goldens
//
// The committed rows were generated at the last commit that still had an
// entry-at-a-time verification path beside the block path (its own suites
// proved the two agree on this matrix), so they are that scalar path, frozen.
// Regenerate only for a change that moves a counter on purpose, and say so;
// rows a test no longer produces are deleted by hand.
var updateGoldens = flag.Bool("update-goldens", false, "rewrite goldens_test.go from this run")

// golden is what one row of a seeded query matrix returned: the error's text,
// an FNV-1a hash over every result's (ID, distance bits, exact flag) in answer
// order, and the counters the verification stage owns.
type golden struct {
	Err  string
	Hash uint64

	Verified, Compdists, Abandoned, Discarded     int64
	EntriesScanned, EntriesPruned, Lemma2Included int64
	TombstonesSkipped, DeltaCandidates, Results   int64

	// EntriesSkipped and ListEvictions are filled by join rows only (addJoin).
	EntriesSkipped, ListEvictions int64
}

// addJoin folds one join's outcome into the row: the hash covers every pair's
// (QID, OID, distance bits) in the order the join returned them.
func (g *golden) addJoin(pairs []JoinPair, qs QueryStats, err error) {
	if err != nil {
		g.Err = err.Error()
	}
	h := fnv.New64a()
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[:], g.Hash)
	h.Write(buf[:8])
	for _, p := range pairs {
		binary.LittleEndian.PutUint64(buf[0:], p.Q.ID())
		binary.LittleEndian.PutUint64(buf[8:], p.O.ID())
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(p.Dist))
		h.Write(buf[:])
	}
	g.Hash = h.Sum64()
	g.Results += int64(len(pairs))
	g.Verified += qs.Verified
	g.Compdists += qs.Compdists
	g.Abandoned += qs.Abandoned
	g.Discarded += qs.Discarded
	g.EntriesScanned += qs.EntriesScanned
	g.EntriesPruned += qs.EntriesPruned
	g.EntriesSkipped += qs.EntriesSkipped
	g.ListEvictions += qs.ListEvictions
	g.TombstonesSkipped += qs.TombstonesSkipped
}

// add folds one query's outcome into the row.
func (g *golden) add(res []Result, qs QueryStats, err error) {
	if err != nil {
		g.Err = err.Error()
	}
	h := fnv.New64a()
	var buf [25]byte
	binary.LittleEndian.PutUint64(buf[:], g.Hash)
	h.Write(buf[:8])
	for _, r := range res {
		binary.LittleEndian.PutUint64(buf[0:], r.Object.ID())
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(r.Dist))
		buf[16] = 0
		if r.Exact {
			buf[16] = 1
		}
		h.Write(buf[:17])
	}
	g.Hash = h.Sum64()
	g.Results += int64(len(res))
	g.Verified += qs.Verified
	g.Compdists += qs.Compdists
	g.Abandoned += qs.Abandoned
	g.Discarded += qs.Discarded
	g.EntriesScanned += qs.EntriesScanned
	g.EntriesPruned += qs.EntriesPruned
	g.Lemma2Included += qs.Lemma2Included
	g.TombstonesSkipped += qs.TombstonesSkipped
	g.DeltaCandidates += qs.DeltaCandidates
}

// checkGolden compares got with the committed row, or records it when
// -update-goldens is set.
func checkGolden(t *testing.T, key string, got golden) {
	t.Helper()
	if *updateGoldens {
		goldens[key] = got
		return
	}
	want, ok := goldens[key]
	if !ok {
		t.Fatalf("%s: no golden row; run with -update-goldens", key)
	}
	if got != want {
		t.Fatalf("%s: diverges from the frozen entry-at-a-time reference:\n got %+v\nwant %+v", key, got, want)
	}
}

// writeGoldens rewrites goldens_test.go when -update-goldens is set, zero
// fields left out.
func writeGoldens(t *testing.T) {
	t.Helper()
	if !*updateGoldens {
		return
	}
	keys := make([]string, 0, len(goldens))
	for k := range goldens {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("// Code generated by go test -update-goldens (see golden_test.go); DO NOT EDIT.\n\npackage core\n\nvar goldens = map[string]golden{\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%q: {", k)
		v := reflect.ValueOf(goldens[k])
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); !f.IsZero() {
				fmt.Fprintf(&b, "%s: %#v, ", v.Type().Field(i).Name, f.Interface())
			}
		}
		b.WriteString("},\n")
	}
	b.WriteString("}\n")
	src, err := format.Source([]byte(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("goldens_test.go", src, 0o644); err != nil {
		t.Fatal(err)
	}
}
