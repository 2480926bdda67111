package main

import (
	"io"
	"strings"
	"testing"

	"spbtree/internal/dataset"
)

func tinyConfig() config {
	return config{n: 400, queries: 4, seed: 1, out: io.Discard}
}

// TestExperimentsRun executes every experiment at a tiny scale; a panic,
// error, or correctness violation in any code path fails the suite.
func TestExperimentsRun(t *testing.T) {
	cfg := tinyConfig()
	experiments := map[string]func(config) error{
		"table2": table2, "table4": table4,
		"table6": table6, "table7": table7,
		"fig10": fig10, "fig11": fig11, "fig12": fig12, "fig13": fig13,
		"fig14": fig14, "fig15": fig15, "fig16": fig16, "fig17": fig17, "fig18": fig18,
		"ablation": ablation, "forest": forestExp,
	}
	for name, fn := range experiments {
		name, fn := name, fn
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if err := fn(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// fig9 runs many builds; keep it serial and even smaller.
func TestFig9Runs(t *testing.T) {
	cfg := tinyConfig()
	cfg.n = 250
	cfg.queries = 3
	if err := fig9(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestJoinSanity cross-checks the three join implementations on every
// dataset kind — they must agree pair for pair.
func TestJoinSanity(t *testing.T) {
	for _, name := range []string{"color", "words", "signature", "dna"} {
		ds, _ := dataset.ByName(name, 300, 3)
		eps := 0.05 * ds.Distance.MaxDistance()
		if err := joinSanity(ds, eps, 3); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestTableOutputShape spot-checks that a table actually renders rows.
func TestTableOutputShape(t *testing.T) {
	var sb strings.Builder
	cfg := tinyConfig()
	cfg.out = &sb
	if err := table4(cfg); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Table 4", "hilbert", "zorder", "Color", "Words", "DNA"} {
		if !strings.Contains(out, want) {
			t.Errorf("table4 output missing %q", want)
		}
	}
}
