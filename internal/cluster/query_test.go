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
	"strings"
	"testing"
	"time"

	"spbtree/internal/core"
	"spbtree/internal/dataset"
	"spbtree/internal/forest"
	"spbtree/internal/metric"
	"spbtree/internal/server"
	"spbtree/internal/sfc"
)

// errInexpressible marks a request a layer has no way to spell (HTTP has no
// bound field and no untimed mode).
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

// serveHTTP serves srv on a loopback listener until the test ends and
// returns its base URL.
func serveHTTP(t *testing.T, srv *server.Server) string {
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ts.URL
}

// httpLayer answers a core.Query through srv's JSON endpoints.
func httpLayer(t *testing.T, srv *server.Server) func(core.Query) ([]core.Result, core.QueryStats, error) {
	url := serveHTTP(t, srv)
	return func(q core.Query) ([]core.Result, core.QueryStats, error) {
		if q.Bounded || !q.Timed {
			return nil, core.QueryStats{}, errInexpressible
		}
		body := map[string]interface{}{"query": q.Q.(*metric.Str).S}
		path := "/v1/knn"
		switch q.Op {
		case core.OpRange:
			path, body["radius"] = "/v1/range", q.Radius
		case core.OpKNNGraph:
			body["k"], body["mode"], body["ef"] = q.K, "ann", q.Search.Ef
		default:
			body["k"] = q.K
		}
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, core.QueryStats{}, err
		}
		resp, err := http.Post(url+path, "application/json", bytes.NewReader(raw))
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

// bruteJoin is the join oracle: a nested loop over every ordered pair of ds
// within eps, in (QID, OID) order.
func bruteJoin(ds dataset.Dataset, eps float64) []core.IDPair {
	var out []core.IDPair
	for _, q := range ds.Objects {
		for _, o := range ds.Objects {
			if d := ds.Distance.Distance(q, o); d <= eps {
				out = append(out, core.IDPair{QID: q.ID(), OID: o.ID(), Dist: d})
			}
		}
	}
	core.SortIDPairs(out)
	return out
}

// httpJoin answers a self-join through srv's /v1/join.
func httpJoin(t *testing.T, srv *server.Server) func(eps float64) ([]core.IDPair, core.QueryStats, error) {
	url := serveHTTP(t, srv)
	return func(eps float64) ([]core.IDPair, core.QueryStats, error) {
		resp, err := http.Post(url+"/v1/join", "application/json",
			bytes.NewReader([]byte(fmt.Sprintf(`{"eps":%v}`, eps))))
		if err != nil {
			return nil, core.QueryStats{}, err
		}
		defer resp.Body.Close()
		var out struct {
			Pairs []struct {
				QID  uint64  `json:"q_id"`
				OID  uint64  `json:"o_id"`
				Dist float64 `json:"dist"`
			} `json:"pairs"`
			Error     string `json:"error"`
			Compdists int64  `json:"compdists"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return nil, core.QueryStats{}, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, core.QueryStats{}, fmt.Errorf("HTTP %d: %s", resp.StatusCode, out.Error)
		}
		pairs := make([]core.IDPair, len(out.Pairs))
		for i, p := range out.Pairs {
			pairs[i] = core.IDPair{QID: p.QID, OID: p.OID, Dist: p.Dist}
		}
		return pairs, core.QueryStats{Compdists: out.Compdists, Results: len(pairs)}, nil
	}
}

// TestJoinEquivalenceAcrossLayers is the join's row of the cross-layer suite:
// one self-join per ε through every layer that answers one — a tree, a tree
// with a live durable write buffer, a forest, the loopback router and both
// HTTP backends — each checked against a nested loop. The tree returns merge
// order; every gathering layer returns (QID, OID) order. Layers over the same
// shards must also agree on compdists.
func TestJoinEquivalenceAcrossLayers(t *testing.T) {
	ds := dataset.Words(900, 43)
	tc := startCluster(t, ds, 5)
	opts := core.Options{Distance: ds.Distance, Codec: ds.Codec, Curve: sfc.ZOrder, Seed: 1}
	tree, err := core.Build(ds.Objects, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The durable tree holds the same live set, a tenth of it in the write
	// buffer: buffered inserts, plus upserts that shadow base records.
	base := len(ds.Objects) * 9 / 10
	durable, err := core.CreateDurable(t.TempDir(), ds.Objects[:base], opts, core.DurableOptions{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { durable.Close() })
	for _, o := range ds.Objects[base:] {
		if err := durable.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range ds.Objects[:40] {
		if err := durable.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if durable.DeltaLen() == 0 {
		t.Fatal("write buffer is empty; the durable row would not cover the delta pass")
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
	selfJoin := func(t *core.Tree) func(float64) ([]core.IDPair, core.QueryStats, error) {
		return func(eps float64) ([]core.IDPair, core.QueryStats, error) {
			pairs, qs, err := core.Join(ctx, t, t, eps)
			return core.IDPairs(pairs), qs, err
		}
	}
	layers := []struct {
		name string
		run  func(eps float64) ([]core.IDPair, core.QueryStats, error)
		// sorted layers promise (QID, OID) order; http layers refuse ε < 0.
		sorted, http bool
	}{
		{name: "tree", run: selfJoin(tree)},
		{name: "tree/durable", run: selfJoin(durable)},
		{name: "forest", sorted: true, run: func(eps float64) ([]core.IDPair, core.QueryStats, error) {
			pairs, qs, err := forest.Join(ctx, tc.ref, tc.ref, eps)
			return core.IDPairs(pairs), qs, err
		}},
		{name: "router", sorted: true, run: func(eps float64) ([]core.IDPair, core.QueryStats, error) {
			return tc.router.Join(ctx, eps)
		}},
		{name: "http/tree", sorted: true, http: true, run: httpJoin(t, overTree)},
		{name: "http/cluster", sorted: true, http: true, run: httpJoin(t, overCluster)},
	}

	all := bruteJoin(ds, 2)
	for _, eps := range []float64{-1, 0, 1, 2} {
		var want []core.IDPair
		for _, p := range all {
			if p.Dist <= eps {
				want = append(want, p)
			}
		}
		compdists := map[string]int64{}
		for _, l := range layers {
			label := fmt.Sprintf("%s eps=%v", l.name, eps)
			got, qs, err := l.run(eps)
			if eps < 0 {
				if l.http {
					if err == nil || !strings.Contains(err.Error(), "HTTP 400") {
						t.Fatalf("%s: err = %v, want HTTP 400", label, err)
					}
				} else if err != nil || len(got) != 0 {
					t.Fatalf("%s: %d pairs, err %v; a negative eps matches nothing", label, len(got), err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !l.sorted {
				core.SortIDPairs(got)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: pair %d = %+v, want %+v", label, i, got[i], want[i])
				}
			}
			if qs.Compdists <= 0 || qs.Results != len(got) {
				t.Fatalf("%s: stats report %d compdists, %d results for %d pairs", label, qs.Compdists, qs.Results, len(got))
			}
			compdists[l.name] = qs.Compdists
		}
		if eps < 0 {
			continue
		}
		// The HTTP backends report their library layer's work, and the
		// cluster's nodes do exactly the reference forest's.
		for _, same := range [][2]string{{"http/tree", "tree"}, {"router", "forest"}, {"http/cluster", "router"}} {
			if compdists[same[0]] != compdists[same[1]] {
				t.Fatalf("eps=%v: %s reports %d compdists, %s %d", eps,
					same[0], compdists[same[0]], same[1], compdists[same[1]])
			}
		}
	}
}
