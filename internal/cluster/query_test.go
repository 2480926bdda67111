package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"spbtree/internal/core"
	"spbtree/internal/dataset"
	"spbtree/internal/metric"
	"spbtree/internal/server"
	"spbtree/internal/sfc"
)

// errInexpressible marks a request a layer has no way to spell (HTTP has no
// bound field, no negative max_verify and no untimed mode).
var errInexpressible = errors.New("layer cannot express this request")

// queryLayer is one place a core.Query can be handed to: a tree, a forest, a
// router, or an HTTP server in front of either.
type queryLayer struct {
	name string
	run  func(q core.Query) ([]core.Result, core.QueryStats, error)
	// passThrough layers forward the request to one tree unchanged, so even
	// approximate answers must equal Tree.Query's.
	passThrough bool
	// graph says how the layer answers OpKNNGraph: "graph" (from a graph when
	// one is built, core.ErrNoGraph otherwise), "fallback" (graph when built,
	// the exact answer otherwise), "exact" (always the exact answer) or
	// "none" (always core.ErrNoGraph).
	graph string
}

// bruteForce is the oracle: a full scan under the canonical orders.
func bruteForce(ds dataset.Dataset, q core.Query) []core.Result {
	var out []core.Result
	for _, o := range ds.Objects {
		d := ds.Distance.Distance(q.Q, o)
		if q.Op == core.OpRange && d > q.Radius || q.Bounded && d > q.Bound {
			continue
		}
		out = append(out, core.Result{Object: o, Dist: d})
	}
	if q.Op == core.OpRange {
		sort.Slice(out, func(i, j int) bool { return out[i].Object.ID() < out[j].Object.ID() })
		return out
	}
	return core.MergeResults(core.OpKNN, q.K, [][]core.Result{out})
}

// httpLayer answers a core.Query through srv's JSON endpoints.
func httpLayer(t *testing.T, srv *server.Server) func(core.Query) ([]core.Result, core.QueryStats, error) {
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return func(q core.Query) ([]core.Result, core.QueryStats, error) {
		if q.Bounded || q.MaxVerify < 0 || !q.Timed {
			return nil, core.QueryStats{}, errInexpressible
		}
		body := map[string]interface{}{"query": q.Q.(*metric.Str).S}
		path := "/v1/knn"
		switch q.Op {
		case core.OpRange:
			path, body["radius"] = "/v1/range", q.Radius
		case core.OpKNNApprox:
			path, body["k"], body["max_verify"] = "/v1/knn/approx", q.K, q.MaxVerify
		case core.OpKNNGraph:
			body["k"], body["mode"], body["ef"] = q.K, "ann", q.Search.Ef
		default:
			body["k"] = q.K
		}
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, core.QueryStats{}, err
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			return nil, core.QueryStats{}, err
		}
		defer resp.Body.Close()
		var out struct {
			Results []struct {
				ID   uint64  `json:"id"`
				Dist float64 `json:"dist"`
			} `json:"results"`
			Error     string `json:"error"`
			Compdists int64  `json:"compdists"`
			ElapsedUS int64  `json:"elapsed_us"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return nil, core.QueryStats{}, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, core.QueryStats{}, fmt.Errorf("HTTP %d: %s", resp.StatusCode, out.Error)
		}
		res := make([]core.Result, len(out.Results))
		for i, r := range out.Results {
			res[i] = core.Result{Object: metric.NewStr(r.ID, ""), Dist: r.Dist}
		}
		return res, core.QueryStats{Compdists: out.Compdists, Results: len(res)}, nil
	}
}

// sameAnswer compares IDs and distances in order (HTTP answers carry no
// object payload and no exactness flag).
func sameAnswer(t *testing.T, label string, got, want []core.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Object.ID() != want[i].Object.ID() || got[i].Dist != want[i].Dist {
			t.Fatalf("%s: result %d = (id %d, dist %v), want (id %d, dist %v)", label, i,
				got[i].Object.ID(), got[i].Dist, want[i].Object.ID(), want[i].Dist)
		}
	}
}

// plausibleApprox checks what every approximate answer owes its caller: at
// most k results, in canonical order, each a real object at its true
// distance.
func plausibleApprox(t *testing.T, label string, ds dataset.Dataset, q core.Query, got []core.Result) {
	t.Helper()
	if len(got) > q.K {
		t.Fatalf("%s: %d results for k=%d", label, len(got), q.K)
	}
	for i, r := range got {
		id := r.Object.ID()
		if id >= uint64(len(ds.Objects)) {
			t.Fatalf("%s: result %d names id %d, not in the data", label, i, id)
		}
		if d := ds.Distance.Distance(q.Q, ds.Objects[id]); d != r.Dist {
			t.Fatalf("%s: result %d reports dist %v, true distance %v", label, i, r.Dist, d)
		}
		if i > 0 && (got[i-1].Dist > r.Dist || got[i-1].Dist == r.Dist && got[i-1].Object.ID() >= id) {
			t.Fatalf("%s: results %d and %d out of (dist, ID) order", label, i-1, i)
		}
	}
}

// TestQueryEquivalenceAcrossLayers is the one equivalence suite of the query
// path: a table of core.Query values run through every layer that accepts
// one, each answer checked against a brute-force scan.
func TestQueryEquivalenceAcrossLayers(t *testing.T) {
	ds := dataset.Words(900, 43)
	tc := startCluster(t, ds, 5)
	tree, err := core.Build(ds.Objects, core.Options{Distance: ds.Distance, Codec: ds.Codec,
		Curve: sfc.ZOrder, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	parse := func(id uint64, line string) (metric.Object, error) { return metric.NewStr(id, line), nil }
	overTree, err := server.New(server.Config{Tree: tree, ParseQuery: server.TextParser(parse)})
	if err != nil {
		t.Fatal(err)
	}
	overCluster, err := server.New(server.Config{
		Backend:    &ServerBackend{R: tc.router, Curve: "zorder"},
		ParseQuery: server.TextParser(parse)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// flatGather is the planner's reference: every shard of the reference
	// forest answers q on its own and the answers merge — no pruning, no
	// staging, no graph fallback.
	flatGather := func(q core.Query) ([]core.Result, core.QueryStats, error) {
		per := make([][]core.Result, 0, tc.ref.NumShards())
		var total core.QueryStats
		for _, sh := range tc.ref.Shards() {
			res, qs, err := sh.Query(ctx, q)
			if err != nil {
				return nil, total, err
			}
			per = append(per, res)
			total.Merge(qs)
		}
		return core.MergeResults(q.Op, q.K, per), total, nil
	}
	layers := []queryLayer{
		{name: "tree", passThrough: true, graph: "graph",
			run: func(q core.Query) ([]core.Result, core.QueryStats, error) { return tree.Query(ctx, q) }},
		{name: "forest", graph: "fallback",
			run: func(q core.Query) ([]core.Result, core.QueryStats, error) { return tc.ref.Query(ctx, q) }},
		{name: "shards/flat", graph: "graph", run: flatGather},
		{name: "router", graph: "none",
			run: func(q core.Query) ([]core.Result, core.QueryStats, error) { return tc.router.Query(ctx, q) }},
		{name: "http/tree", passThrough: true, graph: "fallback", run: httpLayer(t, overTree)},
		{name: "http/cluster", graph: "exact", run: httpLayer(t, overCluster)},
	}

	// Each row builds its request from the query object and, for the bound
	// rows, the true k-th distance.
	const k = 10
	rows := []struct {
		name string
		req  func(q metric.Object, kth float64) core.Query
	}{
		{"range", func(q metric.Object, _ float64) core.Query {
			return core.Query{Op: core.OpRange, Q: q, Radius: 2}
		}},
		{"knn", func(q metric.Object, _ float64) core.Query {
			return core.Query{Op: core.OpKNN, Q: q, K: k}
		}},
		{"knn/bound=0", func(q metric.Object, _ float64) core.Query {
			return core.Query{Op: core.OpKNN, Q: q, K: k, Bounded: true}
		}},
		{"knn/bound=tight", func(q metric.Object, kth float64) core.Query {
			return core.Query{Op: core.OpKNN, Q: q, K: k, Bounded: true, Bound: kth - 1}
		}},
		{"knn/bound=inf", func(q metric.Object, _ float64) core.Query {
			return core.Query{Op: core.OpKNN, Q: q, K: k, Bounded: true, Bound: math.Inf(1)}
		}},
		{"approx/1", func(q metric.Object, _ float64) core.Query {
			return core.Query{Op: core.OpKNNApprox, Q: q, K: k, MaxVerify: 1}
		}},
		{"approx/50", func(q metric.Object, _ float64) core.Query {
			return core.Query{Op: core.OpKNNApprox, Q: q, K: k, MaxVerify: 50}
		}},
		{"approx/0", func(q metric.Object, _ float64) core.Query {
			return core.Query{Op: core.OpKNNApprox, Q: q, K: k}
		}},
		{"approx/-3", func(q metric.Object, _ float64) core.Query {
			return core.Query{Op: core.OpKNNApprox, Q: q, K: k, MaxVerify: -3}
		}},
		{"graph", func(q metric.Object, _ float64) core.Query {
			return core.Query{Op: core.OpKNNGraph, Q: q, K: k}
		}},
		{"graph/ef=64", func(q metric.Object, _ float64) core.Query {
			return core.Query{Op: core.OpKNNGraph, Q: q, K: k, Search: core.SearchOptions{Ef: 64}}
		}},
	}

	for _, graphBuilt := range []bool{false, true} {
		if graphBuilt {
			if err := tree.BuildGraph(core.GraphOptions{Seed: 5}); err != nil {
				t.Fatal(err)
			}
			if err := tc.ref.BuildGraph(core.GraphOptions{Seed: 5}); err != nil {
				t.Fatal(err)
			}
		}
		for qi := 0; qi < 4; qi++ {
			obj := ds.Objects[(qi*211+5)%len(ds.Objects)]
			exactK := bruteForce(ds, core.Query{Op: core.OpKNN, Q: obj, K: k})
			kth := exactK[len(exactK)-1].Dist
			for _, row := range rows {
				req := row.req(obj, kth)
				if graphBuilt && req.Op != core.OpKNNGraph {
					continue // the first pass covered every graph-independent row
				}
				exactReq := req
				if req.Op != core.OpRange {
					exactReq.Op = core.OpKNN
				}
				want := bruteForce(ds, exactReq)
				timed := req
				timed.Timed = true
				viaTree, _, treeErr := tree.Query(ctx, timed)
				for _, l := range layers {
					label := fmt.Sprintf("%s q%d %s graph=%v", l.name, qi, row.name, graphBuilt)
					got, qs, err := l.run(timed)
					if errors.Is(err, errInexpressible) {
						continue
					}
					mode := "exact"
					switch {
					case req.Op == core.OpKNNApprox && req.MaxVerify > 0:
						mode = "approx"
					case req.Op == core.OpKNNGraph && graphBuilt && l.graph == "fallback":
						mode = "graph"
					case req.Op == core.OpKNNGraph && !graphBuilt && l.graph == "fallback":
						mode = "exact"
					case req.Op == core.OpKNNGraph && !graphBuilt && l.graph == "graph":
						mode = "none"
					case req.Op == core.OpKNNGraph:
						mode = l.graph
					}
					if mode == "none" {
						if !errors.Is(err, core.ErrNoGraph) {
							t.Fatalf("%s: err = %v, want ErrNoGraph", label, err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if mode == "exact" {
						sameAnswer(t, label, got, want)
					} else {
						plausibleApprox(t, label, ds, req, got)
						if l.passThrough {
							if treeErr != nil {
								t.Fatalf("%s: tree reference: %v", label, treeErr)
							}
							sameAnswer(t, label+" vs Tree.Query", got, viaTree)
						}
					}
					if row.name == "knn/bound=0" {
						for _, r := range got {
							if r.Dist != 0 {
								t.Fatalf("%s: zero bound returned distance %v", label, r.Dist)
							}
						}
						if len(got) == 0 {
							t.Fatalf("%s: zero bound lost the query object itself", label)
						}
					}

					// Timed only adds clocks: every work counter is the same
					// without it.
					_, plain, err := l.run(req)
					if errors.Is(err, errInexpressible) {
						continue
					}
					if err != nil {
						t.Fatalf("%s untimed: %v", label, err)
					}
					// Merge copies exactly the exported counters, clocks aside.
					var a, b core.QueryStats
					a.Merge(qs)
					b.Merge(plain)
					for _, s := range []*core.QueryStats{&a, &b} {
						// Clocks and physical I/O (cache state) legitimately differ.
						s.PlanTime, s.VerifyTime, s.FilterTime, s.Elapsed = 0, 0, 0, 0
						s.IndexPA, s.DataPA, s.IndexCacheHits, s.DataCacheHits = 0, 0, 0, 0
					}
					a.Plan, b.Plan = qs.Plan, plain.Plan
					if a != b {
						t.Fatalf("%s: counters differ with Timed on/off:\n on  %+v\n off %+v", label, a, b)
					}
				}
			}
		}
	}
}

// slowQueryDist delays every distance evaluation that involves the object
// with ID slow, so a test can put a hard floor under a query's wall time
// without slowing index construction. It spins rather than sleeps: a sleep
// overshoots by the timer granularity, which would blur the floor.
type slowQueryDist struct {
	metric.DistanceFunc
	slow  uint64
	delay time.Duration
}

func (d slowQueryDist) Distance(a, b metric.Object) float64 {
	if a.ID() == d.slow || b.ID() == d.slow {
		for start := time.Now(); time.Since(start) < d.delay; {
		}
	}
	return d.DistanceFunc.Distance(a, b)
}

// TestElapsedCoversTheGather: behind a forest or a router, QueryStats.Elapsed
// is that layer's wall clock around the whole gather — the hints, every serial
// round of a staged kNN and the wire included — not the slowest shard's own
// time, and never more than the caller's clock around the call.
// One node running its shards one at a time makes the whole query serial, so
// every delayed distance evaluation is a hard floor under the gather's clock.
func TestElapsedCoversTheGather(t *testing.T) {
	const (
		slowID = uint64(1) << 40
		delay  = 200 * time.Microsecond
		shards = 5
		pivots = 5 // core.Options.NumPivots default
	)
	ds := dataset.Words(600, 47)
	ds.Distance = slowQueryDist{DistanceFunc: ds.Distance, slow: slowID, delay: delay}
	tc := startClusterOn(t, ds, shards, []string{"solo"}, 1)
	ctx := context.Background()
	q := core.Query{Op: core.OpKNN, Q: metric.NewStr(slowID, ds.Objects[3].(*metric.Str).S), K: 3, Timed: true}

	for _, l := range []struct {
		name string
		// uncounted is the number of delayed evaluations QueryStats.Compdists
		// does not report and the floor claims anyway: the node's hints map
		// the query through every shard's pivots with the uncounted metric.
		uncounted int64
		run       func() ([]core.Result, core.QueryStats, error)
	}{
		{"forest", 0, func() ([]core.Result, core.QueryStats, error) { return tc.ref.Query(ctx, q) }},
		{"router", shards * pivots, func() ([]core.Result, core.QueryStats, error) { return tc.router.Query(ctx, q) }},
	} {
		start := time.Now()
		_, qs, err := l.run()
		outer := time.Since(start)
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		if !qs.Plan.Staged {
			t.Fatalf("%s: query was not staged: %+v", l.name, qs.Plan)
		}
		if floor := time.Duration(qs.Compdists+l.uncounted) * delay; qs.Elapsed < floor {
			t.Errorf("%s: Elapsed %v does not cover the gather: its %d serial distance evaluations alone took %v",
				l.name, qs.Elapsed, qs.Compdists+l.uncounted, floor)
		}
		if qs.Elapsed > outer {
			t.Errorf("%s: Elapsed %v exceeds the caller's clock %v", l.name, qs.Elapsed, outer)
		}
		// The stage clocks stay per-branch maxima: no single shard ran for
		// the whole gather.
		if qs.PlanTime+qs.VerifyTime+qs.FilterTime >= qs.Elapsed {
			t.Errorf("%s: stage clocks %v+%v+%v are not per-shard times within Elapsed %v",
				l.name, qs.PlanTime, qs.VerifyTime, qs.FilterTime, qs.Elapsed)
		}
	}
}
