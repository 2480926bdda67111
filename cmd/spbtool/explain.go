package main

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"

	"spbtree/internal/core"
)

// cmdExplain prints the cost model's view of a query — the EDC/EPA estimate
// and, when several directories are given (each treated as one forest shard),
// the shard relevance hints and staged visit order — without executing
// anything (DESIGN.md §15). It answers "what would this query cost, and which
// shards would it visit" for a query that may be too expensive to run.
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
		fmt.Fprintf(out, "query: range r=%g (plan only — not executed)\n", *r)
	} else {
		fmt.Fprintf(out, "query: kNN k=%d (plan only — not executed)\n", *k)
	}

	hints := make([]core.ShardHint, len(trees))
	for i, t := range trees {
		// The estimate refreshes a dirty cost-model snapshot, arming the
		// hints.
		var est core.CostEstimate
		if *r >= 0 {
			est, err = t.EstimateRange(qobj, *r)
			if err == nil {
				hints[i], err = t.RangeHint(qobj, *r)
			}
		} else {
			est, err = t.EstimateKNN(qobj, *k)
			if err == nil {
				hints[i], err = t.KNNHint(qobj, *k)
			}
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

	// Shard visit order, mirroring the forest scatter's plan (§15.4): range
	// queries visit every non-prunable shard; kNN visits the most promising
	// shard first to obtain the k-th-distance bound, then probes the rest
	// with it.
	order := make([]int, len(trees))
	for i := range order {
		order[i] = i
	}
	if *r >= 0 {
		fmt.Fprintf(out, "\nshard relevance (range scatter):\n")
		sort.Slice(order, func(a, b int) bool {
			ha, hb := hints[order[a]], hints[order[b]]
			if ha.MinDist != hb.MinDist {
				return ha.MinDist < hb.MinDist
			}
			return order[a] < order[b]
		})
		pruned := 0
		for _, i := range order {
			verdict := "visit"
			if hints[i].Prunable {
				verdict = "pruned (minDist > r)"
				pruned++
			}
			fmt.Fprintf(out, "  shard %d (%s): minDist=%.4g — %s\n", i, names[i], hints[i].MinDist, verdict)
		}
		fmt.Fprintf(out, "  %d of %d shard(s) pruned by summary boxes\n", pruned, len(trees))
		return nil
	}

	order = core.StagedOrder(hints)
	fmt.Fprintf(out, "\nshard visit order (staged kNN scatter):\n")
	for pos, i := range order {
		cost := "no cost hint (dirty model)"
		if hints[i].Estimated {
			cost = fmt.Sprintf("EDC=%.1f", hints[i].EDC)
		}
		stage := "stage 2: probed with the stage-1 bound"
		if pos == 0 {
			stage = "stage 1: canonical top-k sets the bound"
		}
		if len(trees) == 1 {
			stage = "only shard: plain kNN"
		}
		fmt.Fprintf(out, "  %d. shard %d (%s): minDist=%.4g, %s — %s\n",
			pos+1, i, names[i], hints[i].MinDist, cost, stage)
	}
	return nil
}
