package main

import (
	"io"
	"strings"
	"testing"
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
		"forest": forestExp,
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

// TestWrongAnswerFailsTheRun plants one wrong answer — the last answer of
// one query, dropped — in one method of each kind of experiment, and
// requires the experiment to fail with an error that names that method.
func TestWrongAnswerFailsTheRun(t *testing.T) {
	for _, tc := range []struct {
		exp    string
		fn     func(config) error
		method string
	}{
		{"fig12", fig12, "OmniR-tree"}, // a baseline, after the reference
		{"fig13", fig13, "M-tree"},     // the reference method itself
		{"fig17", fig17, "eD-index"},
		{"table4", table4, "zorder"},
		{"forest", forestExp, "shards=4"},
	} {
		t.Run(tc.exp, func(t *testing.T) {
			cfg := tinyConfig()
			cfg.plant = tc.method
			err := tc.fn(cfg)
			if err == nil {
				t.Fatalf("%s with a wrong answer from %s succeeded", tc.exp, tc.method)
			}
			if !strings.Contains(err.Error(), tc.method) || !strings.Contains(err.Error(), "query") {
				t.Fatalf("error %q does not name %s and the query", err, tc.method)
			}
		})
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
