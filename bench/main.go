// Command bench is the repository's benchmark: one harness for the whole
// query path, from the distance kernel out to loopback HTTP.
//
//	go run ./bench -workload all -seed 1
//
// generates the inputs from the seed, runs the four named workloads, checks
// every answer against a brute-force oracle and prints every end-to-end metric
// by name with its unit. With -trace 1 it runs the traced pass instead: the
// same queries replayed at each layer boundary (the ladder), the per-layer
// metrics derived from it, and one span file per workload under bench/out/.
// The last line of standard output is the workload's result as one JSON
// object, in the form BENCHMARK.json's contract asks for.
//
//	go run ./bench -compare a.json b.json
//
// applies BENCHMARK.json's bounds to two reports written with -json.
// README.md in this directory explains the workloads, the metrics and how
// they interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// report is what -json writes: every workload's every metric with its spread
// and sample count, and where the numbers were measured.
type report struct {
	Commit  string  `json:"commit"`
	Go      string  `json:"go"`
	NProc   int     `json:"nproc"`
	Clients int     `json:"clients"`
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Trace   bool    `json:"trace"`
	// Claim is always null: the benchmark measures and claims nothing.
	Claim     *string            `json:"claim"`
	Workloads map[string]*result `json:"workloads"`
}

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed the inputs are drawn with")
	seconds := flag.Float64("seconds", 15, "how long the timed passes run")
	trace := flag.Int("trace", 0, "1 runs the traced ladder pass and reports the per-layer metrics")
	smoke := flag.Bool("smoke", false, "a tenth of the objects and one short pass: exercises every path in seconds")
	jsonPath := flag.String("json", "", "also write the full report to this file")
	compare := flag.Bool("compare", false, "compare two -json reports given as arguments")
	summarize := flag.Bool("summarize", false, "print the medians and min-max of the -json reports given as arguments")
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = compareCmd(flag.Args())
	case *summarize:
		err = summarizeCmd(flag.Args())
	default:
		err = runCmd(*workload, runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke}, *jsonPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errFailed makes the command exit non-zero after it has printed its results.
var errFailed = fmt.Errorf("operations failed or answers were wrong")

func runCmd(workload string, cfg runConfig, jsonPath string) error {
	if _, err := os.Stat(benchmarkFile); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	cfg.outDir = filepath.Join("bench", "out")
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	run := specs
	if workload != "all" {
		sp, ok := specByName(workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", workload)
		}
		run = []spec{sp}
	}
	rep := report{Commit: vcsRevision(), Go: runtime.Version(), NProc: runtime.NumCPU(), Clients: clientCount(),
		Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Workloads: map[string]*result{}}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	failed := false
	var lines [][]byte
	for _, sp := range run {
		res, err := runWorkload(sp, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		rep.Workloads[sp.name] = res
		failed = failed || !res.Correct
		line, err := printResult(sp.name, res, defs)
		if err != nil {
			return err
		}
		lines = append(lines, line)
	}
	if jsonPath != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	for _, line := range lines {
		fmt.Printf("%s\n", line)
	}
	if failed {
		return errFailed
	}
	return nil
}

// printResult prints one workload's metrics as a table and returns its result
// line: exactly correct, attempted, failed and metrics, each metric a value
// and a unit. A per-layer metric the workload has no use for reads 0.
func printResult(name string, res *result, defs []metricDef) ([]byte, error) {
	fmt.Printf("workload %s\n", name)
	for _, n := range res.Notes {
		fmt.Printf("  # %s\n", n)
	}
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]valueUnit{}}
	for _, d := range defs {
		m := res.Metrics[d.name]
		line.Metrics[d.name] = valueUnit{m.Value, d.unit}
		fmt.Printf("  %-34s %14.4f %-6s", d.name, m.Value, d.unit)
		if m.Samples > 1 {
			fmt.Printf(" %d samples, spread %.1f%%", m.Samples, 100*m.Spread)
		}
		fmt.Println()
	}
	fmt.Printf("  attempted %d, failed %d\n", res.Attempted, res.Failed)
	return json.Marshal(line)
}

// vcsRevision is the commit the binary was built from, when the go tool knew,
// marked if the tree had uncommitted changes.
func vcsRevision() string {
	rev, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				modified = "+modified"
			}
		}
	}
	return rev + modified
}
