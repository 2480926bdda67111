package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExplainSingleTree: explain prints the estimate and (trivial) visit order
// for one directory, without executing the query.
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
	for _, want := range []string{"not executed", "estimate: EDC=", "shard visit order", "only shard"} {
		if !strings.Contains(out, want) {
			t.Errorf("kNN explain missing %q:\n%s", want, out)
		}
	}

	sb.Reset()
	if err := cmdExplain([]string{"-dir", idxDir, "-q", "defoliate", "-r", "1"}, &sb); err != nil {
		t.Fatal(err)
	}
	out = sb.String()
	for _, want := range []string{"range r=1", "shard relevance", "visit"} {
		if !strings.Contains(out, want) {
			t.Errorf("range explain missing %q:\n%s", want, out)
		}
	}
}

// TestExplainMultiShard: several -dir entries are treated as forest shards;
// the kNN explain orders them (stage 1 / stage 2) and the range explain
// prunes a shard whose summary box provably misses the query.
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

	sb.Reset()
	if err := cmdExplain([]string{"-dir", both, "-q", "cart", "-k", "3"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"shard visit order", "stage 1", "stage 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("multi-shard kNN explain missing %q:\n%s", want, out)
		}
	}
	// The near shard holds the query itself (minDist 0), so it must run first.
	if !strings.Contains(out, "1. shard 0 ("+nearDir) {
		t.Errorf("near shard not visited first:\n%s", out)
	}

	sb.Reset()
	if err := cmdExplain([]string{"-dir", both, "-q", "cart", "-r", "1"}, &sb); err != nil {
		t.Fatal(err)
	}
	out = sb.String()
	// Every far word is ≥ 24 edits from "cart"; its summary box proves it.
	if !strings.Contains(out, "1 of 2 shard(s) pruned") {
		t.Errorf("far shard not pruned:\n%s", out)
	}
	if !strings.Contains(out, "pruned (minDist > r)") {
		t.Errorf("prune verdict line missing:\n%s", out)
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
