package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExplainSingleTree: explain prints the estimate for one directory,
// without executing the query.
func TestExplainSingleTree(t *testing.T) {
	dir := t.TempDir()
	words := []string{
		"citrate", "defoliate", "defoliated", "defoliates", "defoliating",
		"defoliation", "dictionary", "word", "ward", "warden", "cart", "card",
	}
	in := writeInput(t, dir, "words.txt", words)
	idxDir := filepath.Join(dir, "idx")
	var sb strings.Builder
	if err := cmdBuild([]string{"-dir", idxDir, "-type", "words", "-in", in, "-pivots", "2"}, &sb); err != nil {
		t.Fatal(err)
	}

	sb.Reset()
	if err := cmdExplain([]string{"-dir", idxDir, "-q", "defoliate", "-k", "3"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"not executed", "estimate: EDC=", "(eND_k)"} {
		if !strings.Contains(out, want) {
			t.Errorf("kNN explain missing %q:\n%s", want, out)
		}
	}

	sb.Reset()
	if err := cmdExplain([]string{"-dir", idxDir, "-q", "defoliate", "-r", "1"}, &sb); err != nil {
		t.Fatal(err)
	}
	out = sb.String()
	for _, want := range []string{"range r=1", "estimate: EDC=", "radius=1\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("range explain missing %q:\n%s", want, out)
		}
	}
}

// TestExplainMultiShard: several -dir entries are treated as forest shards,
// and explain estimates each on its own, for kNN and range alike.
func TestExplainMultiShard(t *testing.T) {
	dir := t.TempDir()
	near := []string{"cart", "card", "care", "cars", "carp", "dart", "tart", "wart"}
	var far []string
	for i := 0; i < 8; i++ {
		far = append(far, strings.Repeat("zyxwvu", 5)+fmt.Sprintf("%02d", i))
	}
	nearIn := writeInput(t, dir, "near.txt", near)
	farIn := writeInput(t, dir, "far.txt", far)
	nearDir := filepath.Join(dir, "near")
	farDir := filepath.Join(dir, "far")
	var sb strings.Builder
	if err := cmdBuild([]string{"-dir", nearDir, "-type", "words", "-in", nearIn, "-pivots", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{"-dir", farDir, "-type", "words", "-in", farIn, "-pivots", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
	both := nearDir + "," + farDir

	for _, args := range [][]string{{"-k", "3"}, {"-r", "1"}} {
		sb.Reset()
		if err := cmdExplain(append([]string{"-dir", both, "-q", "cart"}, args...), &sb); err != nil {
			t.Fatal(err)
		}
		out := sb.String()
		for _, want := range []string{"shard 0 (" + nearDir + "): 8 objects", "shard 1 (" + farDir + "): 8 objects"} {
			if !strings.Contains(out, want) {
				t.Errorf("explain %v missing %q:\n%s", args, want, out)
			}
		}
		if n := strings.Count(out, "estimate: EDC="); n != 2 {
			t.Errorf("explain %v printed %d estimates, want one per shard:\n%s", args, n, out)
		}
	}
}

// TestExplainErrors mirrors TestToolErrors for the explain flag contract.
func TestExplainErrors(t *testing.T) {
	dir := t.TempDir()
	if err := cmdExplain([]string{"-q", "x", "-r", "1"}, os.Stderr); err == nil {
		t.Error("explain without -dir accepted")
	}
	if err := cmdExplain([]string{"-dir", dir, "-q", "x"}, os.Stderr); err == nil {
		t.Error("explain without -r/-k accepted")
	}
	if err := cmdExplain([]string{"-dir", dir, "-q", "x", "-r", "1", "-k", "2"}, os.Stderr); err == nil {
		t.Error("explain with both -r and -k accepted")
	}
	if err := cmdExplain([]string{"-dir", dir, "-q", "x", "-r", "1"}, os.Stderr); err == nil {
		t.Error("explain on a missing index accepted")
	}
}
