package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchmarkFile is the contract at the repository root: it fixes which
// metrics are end-to-end, which way is better and how far each may worsen.
const benchmarkFile = "BENCHMARK.json"

// benchmarkJSON is the part of BENCHMARK.json the harness reads.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v interface{}) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges metric b against a under the metric's bound: worse or better
// when the median moved by more than the bound in that direction, same when
// it did not, and unresolved when either side's own estimate of the metric's
// run-to-run spread is wider than the bound, so that a move of that size could
// not be told from noise.
func verdict(a, b measured, def boundedMetric) string {
	if a.Spread > def.Bound || b.Spread > def.Bound {
		return "unresolved"
	}
	if a.Value == 0 {
		return "unresolved"
	}
	change := (b.Value - a.Value) / a.Value
	if def.Better == "higher" {
		change = -change
	}
	switch {
	case change > def.Bound:
		return "worse"
	case change < -def.Bound:
		return "better"
	}
	return "same"
}

// compareCmd prints one row per workload and end-to-end metric of the two
// reports and fails if any row is worse.
func compareCmd(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare takes two report files")
	}
	var bm benchmarkJSON
	if err := readJSON(benchmarkFile, &bm); err != nil {
		return err
	}
	var a, b report
	if err := readJSON(args[0], &a); err != nil {
		return err
	}
	if err := readJSON(args[1], &b); err != nil {
		return err
	}
	worse := 0
	fmt.Printf("%-26s %-22s %14s %14s %8s  %s\n", "workload", "metric", args[0], args[1], "bound", "verdict")
	for _, wl := range bm.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			continue
		}
		for _, def := range bm.EndToEnd {
			ma, mb := ra.Metrics[def.Name], rb.Metrics[def.Name]
			v := verdict(ma, mb, def)
			if v == "worse" {
				worse++
			}
			fmt.Printf("%-26s %-22s %14.4f %14.4f %7.1f%%  %s\n", wl.Name, def.Name, ma.Value, mb.Value, 100*def.Bound, v)
		}
		if rb.Failed > ra.Failed {
			worse++
			fmt.Printf("%-26s %-22s %14d %14d %8s  worse\n", wl.Name, "failed", ra.Failed, rb.Failed, "0")
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d rows worse", worse)
	}
	return nil
}

// summary is what -summarize prints and bench/BASELINE.json holds.
type summary struct {
	Commit    string                       `json:"commit"`
	Go        string                       `json:"go"`
	NProc     int                          `json:"nproc"`
	Seed      int64                        `json:"seed"`
	Seconds   float64                      `json:"seconds"`
	Runs      int                          `json:"runs"`
	Claim     *string                      `json:"claim"`
	Workloads map[string]map[string]minMax `json:"workloads"`
}

type minMax struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Unit   string  `json:"unit"`
}

// summarizeCmd folds several reports of the same commit into the median and
// min-max of every metric.
func summarizeCmd(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("-summarize takes report files")
	}
	vals := map[string]map[string][]float64{}
	units := map[string]string{}
	var sum summary
	for _, path := range args {
		var r report
		if err := readJSON(path, &r); err != nil {
			return err
		}
		sum.Commit, sum.Go, sum.NProc, sum.Seed, sum.Seconds = r.Commit, r.Go, r.NProc, r.Seed, r.Seconds
		for wl, res := range r.Workloads {
			if vals[wl] == nil {
				vals[wl] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				vals[wl][name] = append(vals[wl][name], m.Value)
				units[name] = m.Unit
			}
		}
	}
	sum.Runs = len(args)
	sum.Workloads = map[string]map[string]minMax{}
	for wl, byName := range vals {
		sum.Workloads[wl] = map[string]minMax{}
		for name, v := range byName {
			sort.Float64s(v)
			sum.Workloads[wl][name] = minMax{Median: median(v), Min: v[0], Max: v[len(v)-1], Unit: units[name]}
		}
	}
	b, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", b)
	return nil
}
