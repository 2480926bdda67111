package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"spbtree/internal/core"
)

// cmdExplain prints the cost model's view of a query — the EDC/EPA estimate
// of every directory given (several are treated as forest shards, each
// estimated on its own) — without executing anything (DESIGN.md §15). It
// answers "what would this query cost" for a query that may be too expensive
// to run.
func cmdExplain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	dirs := fs.String("dir", "", "index directory, or a comma-separated list treated as forest shards")
	q := fs.String("q", "", "query object (same format as input lines)")
	r := fs.Float64("r", -1, "range query radius")
	k := fs.Int("k", 0, "kNN query k")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dirs == "" || *q == "" {
		return fmt.Errorf("explain needs -dir and -q")
	}
	if (*r < 0) == (*k <= 0) {
		return fmt.Errorf("explain needs exactly one of -r or -k")
	}

	var trees []*core.Tree
	var names []string
	defer func() {
		for _, t := range trees {
			t.Close()
		}
	}()
	var kd kind
	for _, dir := range strings.Split(*dirs, ",") {
		dir = strings.TrimSpace(dir)
		if dir == "" {
			continue
		}
		tree, tk, _, err := openTree(dir)
		if err != nil {
			return fmt.Errorf("%s: %w", dir, err)
		}
		trees = append(trees, tree)
		names = append(names, dir)
		if len(trees) == 1 {
			kd = tk
		}
	}
	if len(trees) == 0 {
		return fmt.Errorf("explain needs at least one directory")
	}
	qobj, err := kd.parse(1<<63, *q)
	if err != nil {
		return fmt.Errorf("parse query: %w", err)
	}

	if *r >= 0 {
		fmt.Fprintf(out, "query: range r=%g (estimate only — not executed)\n", *r)
	} else {
		fmt.Fprintf(out, "query: kNN k=%d (estimate only — not executed)\n", *k)
	}

	for i, t := range trees {
		var est core.CostEstimate
		if *r >= 0 {
			est, err = t.EstimateRange(qobj, *r)
		} else {
			est, err = t.EstimateKNN(qobj, *k)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", names[i], err)
		}

		fmt.Fprintf(out, "\nshard %d (%s): %d objects\n", i, names[i], t.Len())
		fmt.Fprintf(out, "  estimate: EDC=%.1f compdists, EPA=%.1f pages, radius=%g",
			est.EDC, est.EPA, est.Radius)
		if *k > 0 {
			fmt.Fprint(out, " (eND_k)")
		}
		fmt.Fprintln(out)
	}
	return nil
}
