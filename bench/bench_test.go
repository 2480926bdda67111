package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"spbtree/internal/core"
	"spbtree/internal/metric"
)

func TestPercentileMedianSpread(t *testing.T) {
	vals := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {10, 1}, {100, 10}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median(vals); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
	if got := quartileSpread(vals); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 || quartileSpread([]float64{4}) != 0 {
		t.Error("empty inputs must give 0")
	}
}

// qps is computed inside each pass and reduced by the median, so one slow
// pass does not move it; latency percentiles are taken over the samples of all
// passes together, and their spread is the spread between the passes.
func TestLoadMetricsPassesAndPool(t *testing.T) {
	pass := func(knnMS float64, wall time.Duration) passResult {
		var p passResult
		p.wall = wall
		for i := 0; i < 20; i++ {
			p.lat[opKNN] = append(p.lat[opKNN], knnMS+float64(i))
		}
		return p
	}
	m := metrics{}
	loadMetrics([]passResult{pass(10, time.Second), pass(12, time.Second), pass(500, 10*time.Second)}, m)
	if got := m["qps"].Value; got != 20 {
		t.Errorf("qps = %v, want the median pass's 20", got)
	}
	// 60 pooled samples: 10..29, 12..31, 500..519. Rank 30 is 25, rank 57 is 516.
	if got := m["knn_p50_ms"].Value; got != 25 {
		t.Errorf("knn_p50_ms = %v, want 25 from the pooled samples", got)
	}
	if got := m["knn_p95_ms"].Value; got != 516 {
		t.Errorf("knn_p95_ms = %v, want 516 from the pooled samples", got)
	}
	if m["knn_p50_ms"].Samples != 60 || m["knn_p50_ms"].Spread == 0 || m["client.samples"].Value != 60 {
		t.Errorf("sample counts or spread wrong: %+v %+v", m["knn_p50_ms"], m["client.samples"])
	}
	if m["client.write_p50_ms"].Value != 0 {
		t.Errorf("a kind with no samples must read 0, got %v", m["client.write_p50_ms"].Value)
	}
}

// In an open loop a stall is charged to every request it delays: latency runs
// from the instant a request was due, not from when the backend got to it.
func TestOpenLoopLatencyFromDue(t *testing.T) {
	const stall = 200 * time.Millisecond
	var backend sync.Mutex // a server that handles one request at a time
	first := true
	do := func(context.Context, op) (answer, error) {
		backend.Lock()
		defer backend.Unlock()
		if first {
			first = false
			time.Sleep(stall)
		}
		return answer{}, nil
	}
	res := runOpen(context.Background(), 100, 300*time.Millisecond, []op{{kind: opKNN}}, do)
	if res.sent != 30 || len(res.fromDueMS) != 30 || res.failed != 0 {
		t.Fatalf("sent %d, completed %d, failed %d; want 30, 30, 0", res.sent, len(res.fromDueMS), res.failed)
	}
	// Requests due 10..100 ms into the stall each did no work of their own,
	// yet waited for it to end.
	inflated := 0
	for _, ms := range res.fromDueMS {
		if ms > 80 {
			inflated++
		}
	}
	if inflated < 8 {
		t.Errorf("only %d requests show the stall in their latency from due time: %v", inflated, res.fromDueMS)
	}
	if late := percentile(res.lateMS, 50); late > 50 {
		t.Errorf("generator ran %v ms late at the median; the stall must not hold it up", late)
	}
}

func TestLadderSelf(t *testing.T) {
	rungs := []float64{2, 21, 22.5, 23, 23.4}
	self := ladderSelf(rungs)
	want := []float64{2, 19, 1.5, 0.5, 0.4}
	sum := 0.0
	for i := range want {
		if math.Abs(self[i]-want[i]) > 1e-9 {
			t.Errorf("self[%d] = %v, want %v", i, self[i], want[i])
		}
		sum += self[i]
	}
	if math.Abs(sum-rungs[len(rungs)-1]) > 1e-9 {
		t.Errorf("self times sum to %v, want the outermost rung %v", sum, rungs[len(rungs)-1])
	}
}

// Every span but a root names a parent that exists, belongs to the same
// query and was open for the span's whole life.
func TestSpanParents(t *testing.T) {
	tr := newTracer()
	rungs := []rung{
		{name: "inner", call: func(context.Context, metric.Object, *tracer, string, int) (core.QueryStats, error) {
			return core.QueryStats{Compdists: 7}, nil
		}},
		{name: "outer", call: func(_ context.Context, _ metric.Object, tr *tracer, req string, parent int) (core.QueryStats, error) {
			for _, child := range []string{"a", "b"} {
				id := tr.start(child, req, parent)
				time.Sleep(time.Millisecond)
				tr.end(id)
			}
			return core.QueryStats{}, nil
		}},
	}
	queries := []metric.Object{metric.NewStr(0, "x"), metric.NewStr(1, "y")}
	lad, err := runLadder(context.Background(), tr, "wl", queries, rungs)
	if err != nil {
		t.Fatal(err)
	}
	if len(lad.ms["inner"]) != 2 || lad.stats["inner"][1].Compdists != 7 {
		t.Errorf("ladder result incomplete: %+v", lad)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2*(1+2+2) {
		t.Fatalf("%d spans, want 10", len(spans))
	}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	roots := 0
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			t.Errorf("span %d never ended", s.ID)
		}
		if s.Parent == 0 {
			roots++
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %d has unknown parent %d", s.ID, s.Parent)
		}
		if p.StartNS > s.StartNS || p.EndNS < s.EndNS {
			t.Errorf("span %d [%d,%d] outlives parent %d [%d,%d]", s.ID, s.StartNS, s.EndNS, p.ID, p.StartNS, p.EndNS)
		}
		if len(s.Req) < len(p.Req) || s.Req[:len(p.Req)] != p.Req {
			t.Errorf("span %d request %q does not extend its parent's %q", s.ID, s.Req, p.Req)
		}
	}
	if roots != len(queries) {
		t.Errorf("%d root spans, want one per query", roots)
	}

	// A nil tracer records nothing and the ladder still measures.
	if _, err := runLadder(context.Background(), nil, "wl", queries, rungs); err != nil {
		t.Fatal(err)
	}
}

func TestVerdict(t *testing.T) {
	lower := boundedMetric{Name: "knn_p50_ms", Better: "lower", Bound: 0.1}
	higher := boundedMetric{Name: "qps", Better: "higher", Bound: 0.1}
	v := func(val, spread float64) measured { return measured{Value: val, Spread: spread} }
	for _, c := range []struct {
		a, b measured
		def  boundedMetric
		want string
	}{
		{v(10, 0), v(10.5, 0), lower, "same"},
		{v(10, 0), v(11.5, 0), lower, "worse"},
		{v(10, 0), v(8, 0), lower, "better"},
		{v(100, 0), v(85, 0), higher, "worse"},
		{v(100, 0), v(115, 0), higher, "better"},
		{v(10, 0.2), v(11.5, 0), lower, "unresolved"},
		{v(10, 0), v(11.5, 0.2), lower, "unresolved"},
	} {
		if got := verdict(c.a, c.b, c.def); got != c.want {
			t.Errorf("verdict(%v, %v, %s) = %s, want %s", c.a.Value, c.b.Value, c.def.Better, got, c.want)
		}
	}
}

// BENCHMARK.json and the harness must name the same workloads and metrics.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	var bm benchmarkJSON
	if err := readJSON(filepath.Join("..", benchmarkFile), &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(specs) {
		t.Fatalf("%d workloads in %s, %d specs", len(bm.Workloads), benchmarkFile, len(specs))
	}
	for i, wl := range bm.Workloads {
		if wl.Name != specs[i].name || wl.Why != specs[i].why {
			t.Errorf("workload %d: %s has %q (%q), the harness %q (%q)", i, benchmarkFile, wl.Name, wl.Why, specs[i].name, specs[i].why)
		}
	}
	same := func(kind string, got []boundedMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in %s, %d in the harness", kind, len(got), benchmarkFile, len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: %s has %s (%s), the harness %s (%s)", kind, i, benchmarkFile, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bm.EndToEnd, endToEnd)
	same("per_layer", bm.PerLayer, perLayer)
}

// The -smoke configuration runs every workload end to end, traced, in
// seconds. Under one seed the count pass repeats exactly; another seed gives
// other inputs and so other counts.
func TestSmoke(t *testing.T) {
	counted := []string{"core.compdists_per_op", "bptree.nodes_read_per_op", "bptree.entries_scanned_per_op",
		"bptree.heap_pushes_per_op", "bptree.index_pa_per_op", "raf.data_pa_per_op", "bytes_per_user_byte"}
	run := func(sp spec, seed int64) *result {
		t.Helper()
		res, err := runWorkload(sp, runConfig{seed: seed, seconds: 0.2, trace: true, smoke: true, outDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s seed %d: %v", sp.name, seed, err)
		}
		if !res.Correct || res.Attempted == 0 {
			t.Fatalf("%s seed %d: %d of %d operations failed", sp.name, seed, res.Failed, res.Attempted)
		}
		return res
	}
	for _, sp := range specs {
		first := run(sp, 1)
		for _, d := range endToEnd {
			if first.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; every workload must measure it", sp.name, d.name, first.Metrics[d.name].Value)
			}
		}
		if !sp.graph && first.Metrics["recall_at_10"].Value != 1 {
			t.Errorf("%s: exact recall %v", sp.name, first.Metrics["recall_at_10"].Value)
		}
		if sp.cluster {
			// Background compaction makes the mixed workload's counts
			// timing-dependent; its smoke run checks durability instead.
			for _, name := range []string{"forest.knn_ms", "cluster.rpcs_per_op", "server.http_knn_ms", "wal.batch_ratio", "client.write_p50_ms"} {
				if first.Metrics[name].Value <= 0 {
					t.Errorf("%s: %s is %v", sp.name, name, first.Metrics[name].Value)
				}
			}
			continue
		}
		again, other := run(sp, 1), run(sp, 2)
		differs := false
		for _, name := range counted {
			a, b, c := first.Metrics[name].Value, again.Metrics[name].Value, other.Metrics[name].Value
			if a != b {
				t.Errorf("%s: %s is %v, then %v under the same seed", sp.name, name, a, b)
			}
			differs = differs || a != c
		}
		if !differs {
			t.Errorf("%s: seeds 1 and 2 gave identical counts", sp.name)
		}
	}
}
