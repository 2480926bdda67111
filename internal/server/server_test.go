package server

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spbtree/internal/core"
	"spbtree/internal/metric"
	"spbtree/internal/sfc"
)

// throttleDist wraps a DistanceFunc with a switchable per-call sleep and an
// optional hard gate, so tests can park queries inside the worker pool at
// will. Delay-based throttling keeps cancellation checks reachable; the gate
// holds a query until released (for drain and 429 tests).
type throttleDist struct {
	metric.DistanceFunc
	delay atomic.Int64 // ns per Distance call
	gate  atomic.Bool
	// started receives one token per gated Distance call; release frees them.
	started chan struct{}
	release chan struct{}
}

func (d *throttleDist) Distance(a, b metric.Object) float64 {
	if n := d.delay.Load(); n > 0 {
		time.Sleep(time.Duration(n))
	}
	if d.gate.Load() {
		select {
		case d.started <- struct{}{}:
		default:
		}
		<-d.release
	}
	return d.DistanceFunc.Distance(a, b)
}

// testService is one served tree plus its HTTP front end.
type testService struct {
	tree *core.Tree
	dist *throttleDist
	srv  *Server
	ts   *httptest.Server
}

// newTestService builds a Z-order vector tree (joins work) behind a Server.
func newTestService(t *testing.T, n int, cfg Config) *testService {
	t.Helper()
	const dim = 4
	rng := rand.New(rand.NewSource(7))
	objs := make([]metric.Object, n)
	for i := range objs {
		coords := make([]float64, dim)
		for d := range coords {
			coords[d] = rng.Float64()
		}
		objs[i] = metric.NewVector(uint64(i), coords)
	}
	dist := &throttleDist{
		DistanceFunc: metric.L2(dim),
		started:      make(chan struct{}, 1024),
		release:      make(chan struct{}),
	}
	tree, err := core.Build(objs, core.Options{
		Distance: dist, Codec: metric.VectorCodec{Dim: dim},
		NumPivots: 3, Curve: sfc.ZOrder, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tree = tree
	if cfg.ParseQuery == nil {
		cfg.ParseQuery = VectorParser(dim)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return &testService{tree: tree, dist: dist, srv: srv, ts: ts}
}

// post sends a JSON body and decodes the response envelope.
func (s *testService) post(t *testing.T, path, body string) (int, response) {
	t.Helper()
	resp, err := http.Post(s.ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s: decode response: %v", path, err)
	}
	return resp.StatusCode, out
}

func TestE2ERangeKNNApprox(t *testing.T) {
	s := newTestService(t, 400, Config{})
	q := `[0.5,0.5,0.5,0.5]`

	code, out := s.post(t, "/v1/range", `{"vector":`+q+`,"radius":0.4}`)
	if code != http.StatusOK {
		t.Fatalf("range: status %d (%+v)", code, out)
	}
	if out.Count == 0 || out.Count != len(out.Results) || out.Partial {
		t.Fatalf("range: bad envelope %+v", out)
	}
	for _, r := range out.Results {
		if r.Exact && r.Dist > 0.4 {
			t.Fatalf("range result %d at distance %v > radius", r.ID, r.Dist)
		}
	}
	if out.Compdists <= 0 || out.ElapsedUS < 0 {
		t.Fatalf("range: missing cost metrics %+v", out)
	}

	code, out = s.post(t, "/v1/knn", `{"vector":`+q+`,"k":7}`)
	if code != http.StatusOK || len(out.Results) != 7 {
		t.Fatalf("knn: status %d, %d results", code, len(out.Results))
	}
	for i := 1; i < len(out.Results); i++ {
		if out.Results[i-1].Dist > out.Results[i].Dist {
			t.Fatal("knn results not sorted")
		}
	}

	code, out = s.post(t, "/v1/knn/approx", `{"vector":`+q+`,"k":7,"max_verify":20}`)
	if code != http.StatusOK || len(out.Results) != 7 {
		t.Fatalf("approx: status %d, %d results", code, len(out.Results))
	}
}

func TestE2EJoin(t *testing.T) {
	s := newTestService(t, 150, Config{})
	code, out := s.post(t, "/v1/join", `{"eps":0.05}`)
	if code != http.StatusOK {
		t.Fatalf("join: status %d (%s)", code, out.Error)
	}
	// A self-join always contains the |O| self-pairs at distance 0.
	if out.Count < s.tree.Len() || out.Count != len(out.Pairs) {
		t.Fatalf("join: %d pairs, want >= %d", out.Count, s.tree.Len())
	}
	for _, p := range out.Pairs {
		if p.Dist > 0.05 {
			t.Fatalf("join pair (%d,%d) at distance %v > eps", p.QID, p.OID, p.Dist)
		}
	}
}

func TestE2EJoinNeedsZOrder(t *testing.T) {
	// A Hilbert-curve index must reject /v1/join up front with 400.
	objs := make([]metric.Object, 60)
	rng := rand.New(rand.NewSource(9))
	for i := range objs {
		objs[i] = metric.NewVector(uint64(i), []float64{rng.Float64(), rng.Float64()})
	}
	tree, err := core.Build(objs, core.Options{
		Distance: metric.L2(2), Codec: metric.VectorCodec{Dim: 2}, NumPivots: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Tree: tree, ParseQuery: VectorParser(2)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/join", strings.NewReader(`{"eps":0.1}`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("join on Hilbert tree: status %d, want 400", rec.Code)
	}
}

func TestE2EBadInput(t *testing.T) {
	s := newTestService(t, 100, Config{MaxBodyBytes: 4096})
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"not json", "/v1/range", `{{{{`, 400},
		{"missing radius", "/v1/range", `{"vector":[0.1,0.2,0.3,0.4]}`, 400},
		{"negative radius", "/v1/range", `{"vector":[0.1,0.2,0.3,0.4],"radius":-1}`, 400},
		{"nan radius", "/v1/range", `{"vector":[0.1,0.2,0.3,0.4],"radius":NaN}`, 400},
		{"inf radius", "/v1/range", `{"vector":[0.1,0.2,0.3,0.4],"radius":1e999}`, 400},
		{"no query object", "/v1/knn", `{"k":3}`, 400},
		{"negative k", "/v1/knn", `{"vector":[0.1,0.2,0.3,0.4],"k":-2}`, 400},
		{"zero k", "/v1/knn", `{"vector":[0.1,0.2,0.3,0.4],"k":0}`, 400},
		{"huge k", "/v1/knn", `{"vector":[0.1,0.2,0.3,0.4],"k":100000000}`, 400},
		{"wrong dim", "/v1/knn", `{"vector":[0.1,0.2],"k":3}`, 400},
		{"negative budget", "/v1/knn/approx", `{"vector":[0.1,0.2,0.3,0.4],"k":3,"max_verify":-1}`, 400},
		{"unknown field", "/v1/range", `{"vector":[0.1,0.2,0.3,0.4],"radius":0.1,"bogus":1}`, 400},
		{"trailing data", "/v1/range", `{"vector":[0.1,0.2,0.3,0.4],"radius":0.1} extra`, 400},
		{"join with vector", "/v1/join", `{"vector":[0.1,0.2,0.3,0.4],"eps":0.1}`, 400},
		{"join without eps", "/v1/join", `{}`, 400},
		{"negative timeout", "/v1/range", `{"vector":[0.1,0.2,0.3,0.4],"radius":0.1,"timeout_ms":-5}`, 400},
		{"oversized body", "/v1/range", `{"vector":[` + strings.Repeat("0.1,", 4000) + `0.1],"radius":0.1}`, 413},
	}
	for _, tc := range cases {
		resp, err := http.Post(s.ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	// Wrong methods get 405 from the Go 1.22 mux patterns.
	resp, err := http.Get(s.ts.URL + "/v1/range")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/range: status %d, want 405", resp.StatusCode)
	}
}

func TestE2EDeadlinePartials(t *testing.T) {
	s := newTestService(t, 500, Config{})
	// ~100µs per distance makes the near-full range scan take ~50ms; a 2ms
	// request deadline expires mid-verification.
	s.dist.delay.Store(int64(100 * time.Microsecond))
	defer s.dist.delay.Store(0)
	code, out := s.post(t, "/v1/range", `{"vector":[0.5,0.5,0.5,0.5],"radius":1.9,"timeout_ms":2}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%+v)", code, out)
	}
	if !out.Partial || out.Error == "" {
		t.Fatalf("deadline response not marked partial: %+v", out)
	}
	if !strings.Contains(out.Error, "canceled") {
		t.Fatalf("error %q does not surface ErrCanceled", out.Error)
	}
	if len(out.Results) >= s.tree.Len() {
		t.Fatal("canceled query returned the full answer")
	}
	// Partials are well-formed: in range order (ascending ID), within the
	// radius.
	for i, r := range out.Results {
		if r.Exact && r.Dist > 1.9 {
			t.Fatalf("partial %d outside radius", i)
		}
		if i > 0 && out.Results[i-1].ID >= r.ID {
			t.Fatal("partials not sorted by ID")
		}
	}
}

func TestE2EQueueFull(t *testing.T) {
	s := newTestService(t, 200, Config{Workers: 1, QueueDepth: 1})
	// Park one query inside the single worker and fill the one queue slot.
	s.dist.gate.Store(true)
	body := `{"vector":[0.5,0.5,0.5,0.5],"k":3}`
	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(s.ts.URL+"/v1/knn", "application/json", strings.NewReader(body))
			if err != nil {
				results <- -1
				return
			}
			resp.Body.Close()
			results <- resp.StatusCode
		}()
		if i == 0 {
			<-s.dist.started // the first query is now inside the worker
		} else {
			// Give the second request time to occupy the queue slot.
			time.Sleep(50 * time.Millisecond)
		}
	}
	// Worker busy + queue full: the next request must bounce with 429.
	resp, err := http.Post(s.ts.URL+"/v1/knn", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	s.dist.gate.Store(false)
	close(s.dist.release)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("parked request %d finished with %d", i, code)
		}
	}
}

func TestE2EShutdownDrain(t *testing.T) {
	s := newTestService(t, 200, Config{Workers: 2})
	s.dist.gate.Store(true)
	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Post(s.ts.URL+"/v1/knn", "application/json",
			strings.NewReader(`{"vector":[0.5,0.5,0.5,0.5],"k":3}`))
		if err != nil {
			inflight <- -1
			return
		}
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	<-s.dist.started // the query is executing

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- s.srv.Shutdown(ctx)
	}()
	for !s.srv.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New queries and health checks bounce with 503 while draining.
	resp, err := http.Post(s.ts.URL+"/v1/knn", "application/json",
		strings.NewReader(`{"vector":[0.5,0.5,0.5,0.5],"k":3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query during drain: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	hresp, err := http.Get(s.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: status %d, want 503", hresp.StatusCode)
	}

	// Release the parked query: it must complete normally and unblock drain.
	s.dist.gate.Store(false)
	close(s.dist.release)
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight query finished with %d during drain, want 200", code)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestE2EStatsAndDebugVars(t *testing.T) {
	s := newTestService(t, 200, Config{MetricsName: "spbserve_test_metrics"})
	// Issue a few queries so the histograms have samples.
	for i := 0; i < 3; i++ {
		if code, _ := s.post(t, "/v1/range", `{"vector":[0.5,0.5,0.5,0.5],"radius":0.3}`); code != 200 {
			t.Fatalf("range warm-up: %d", code)
		}
	}
	if code, body := s.post(t, "/v1/knn", `{"vector":[0.5,0.5,0.5,0.5],"k":3}`); code != 200 {
		t.Fatal("knn warm-up failed")
	} else if body.Plan != nil {
		// The plan block describes a scatter; a single tree has none.
		t.Fatalf("single-tree response carries a plan block: %+v", body.Plan)
	}

	resp, err := http.Get(s.ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Objects   int                        `json:"objects"`
		Curve     string                     `json:"curve"`
		Endpoints map[string]json.RawMessage `json:"endpoints"`
		Admission map[string]int64           `json:"admission"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Objects != 200 || stats.Curve != "zorder" {
		t.Fatalf("stats: %+v", stats)
	}
	if _, ok := stats.Endpoints[core.OpRange]; !ok {
		t.Fatalf("stats lacks the range endpoint aggregates: %v", stats.Endpoints)
	}
	// The per-endpoint latency histograms are visible on /debug/vars under
	// the published name.
	dresp, err := http.Get(s.ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(dresp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	raw, ok := vars["spbserve_test_metrics"]
	if !ok {
		t.Fatal("/debug/vars lacks the published server metrics")
	}
	var pub struct {
		Endpoints map[string]struct {
			Queries int64 `json:"queries"`
			Latency struct {
				Count int64 `json:"count"`
			} `json:"latency"`
		} `json:"endpoints"`
	}
	if err := json.Unmarshal(raw, &pub); err != nil {
		t.Fatal(err)
	}
	rangeM := pub.Endpoints[core.OpRange]
	if rangeM.Queries != 3 || rangeM.Latency.Count != 3 {
		t.Fatalf("range endpoint histogram: %+v", rangeM)
	}
	if pub.Endpoints[core.OpKNN].Latency.Count != 1 {
		t.Fatalf("knn endpoint histogram: %+v", pub.Endpoints[core.OpKNN])
	}

	hresp, err := http.Get(s.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", hresp.StatusCode)
	}
}

// TestServerLoad hammers a small worker pool from many clients with a mix of
// operations and deadlines: every response is one of 200/429/504, the
// envelope is always decodable, and afterwards the pool drains with no
// goroutine leak. Run with -race.
func TestServerLoad(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		s := newTestService(t, 300, Config{Workers: 2, QueueDepth: 2})
		s.dist.delay.Store(int64(5 * time.Microsecond)) // queries take ~ms
		var wg sync.WaitGroup
		var got [600]int32
		bodies := []string{
			`{"vector":[0.5,0.5,0.5,0.5],"radius":0.6}`,
			`{"vector":[0.2,0.4,0.6,0.8],"k":10}`,
			`{"vector":[0.9,0.1,0.9,0.1],"k":5,"max_verify":30}`,
			`{"vector":[0.5,0.5,0.5,0.5],"radius":1.5,"timeout_ms":1}`,
		}
		paths := []string{"/v1/range", "/v1/knn", "/v1/knn/approx", "/v1/range"}
		client := &http.Client{Timeout: 30 * time.Second}
		for i := 0; i < 60; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j := 0; j < 5; j++ {
					op := (i + j) % len(bodies)
					resp, err := client.Post(s.ts.URL+paths[op], "application/json", strings.NewReader(bodies[op]))
					if err != nil {
						atomic.StoreInt32(&got[i*5+j], -1)
						return
					}
					var out response
					derr := json.NewDecoder(resp.Body).Decode(&out)
					resp.Body.Close()
					if derr != nil {
						atomic.StoreInt32(&got[i*5+j], -2)
						return
					}
					atomic.StoreInt32(&got[i*5+j], int32(resp.StatusCode))
				}
			}(i)
		}
		wg.Wait()
		counts := map[int32]int{}
		for i := 0; i < 300; i++ {
			counts[atomic.LoadInt32(&got[i])]++
		}
		for code, n := range counts {
			switch code {
			case http.StatusOK, http.StatusTooManyRequests, http.StatusGatewayTimeout:
			default:
				t.Errorf("%d responses with unexpected outcome %d", n, code)
			}
		}
		if counts[http.StatusOK] == 0 {
			t.Error("no query succeeded under load")
		}
		t.Logf("load outcomes: %v", counts)
	}()
	// The Cleanup-driven shutdown runs when the closure's test service goes
	// out of scope at function end; poll for goroutines to settle.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Logf("goroutines: %d before, %d after (cleanup may still be pending)", before, runtime.NumGoroutine())
}

// newDurableTestService builds a durable Z-order vector tree (WAL + delta +
// compactor armed) behind a Server, so the write endpoints work.
func newDurableTestService(t *testing.T, n int, cfg Config) *testService {
	t.Helper()
	const dim = 4
	rng := rand.New(rand.NewSource(7))
	objs := make([]metric.Object, n)
	for i := range objs {
		coords := make([]float64, dim)
		for d := range coords {
			coords[d] = rng.Float64()
		}
		objs[i] = metric.NewVector(uint64(i), coords)
	}
	dist := &throttleDist{
		DistanceFunc: metric.L2(dim),
		started:      make(chan struct{}, 1024),
		release:      make(chan struct{}),
	}
	tree, err := core.CreateDurable(t.TempDir(), objs, core.Options{
		Distance: dist, Codec: metric.VectorCodec{Dim: dim},
		NumPivots: 3, Curve: sfc.ZOrder, Seed: 7,
	}, core.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tree = tree
	if cfg.ParseQuery == nil {
		cfg.ParseQuery = VectorParser(dim)
	}
	if cfg.ParseObject == nil {
		cfg.ParseObject = VectorObjects(dim)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		tree.Close()
	})
	return &testService{tree: tree, dist: dist, srv: srv, ts: ts}
}

// postMutate sends a JSON body to a write endpoint and decodes its envelope.
func (s *testService) postMutate(t *testing.T, path, body string) (int, mutateResponse) {
	t.Helper()
	resp, err := http.Post(s.ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out mutateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s: decode response: %v", path, err)
	}
	return resp.StatusCode, out
}

func TestE2EInsertDeleteRoundTrip(t *testing.T) {
	s := newDurableTestService(t, 200, Config{})
	base := s.tree.Len()

	// Insert a new object and find it with a tight range query around it.
	code, out := s.postMutate(t, "/v1/insert", `{"id":9000,"vector":[0.5,0.5,0.5,0.5]}`)
	if code != http.StatusOK || !out.OK {
		t.Fatalf("insert: status %d (%+v)", code, out)
	}
	if out.Op != "insert" || out.ID != 9000 || out.Objects != base+1 || out.Delta == 0 {
		t.Fatalf("insert envelope: %+v", out)
	}
	qcode, qout := s.post(t, "/v1/range", `{"vector":[0.5,0.5,0.5,0.5],"radius":0.0001}`)
	if qcode != http.StatusOK {
		t.Fatalf("range after insert: status %d", qcode)
	}
	found := false
	for _, r := range qout.Results {
		if r.ID == 9000 {
			found = true
		}
	}
	if !found {
		t.Fatalf("inserted object missing from range results: %+v", qout.Results)
	}

	// Delete it; the query must stop seeing it and a second delete is 404.
	code, out = s.postMutate(t, "/v1/delete", `{"id":9000,"vector":[0.5,0.5,0.5,0.5]}`)
	if code != http.StatusOK || !out.OK || out.Objects != base {
		t.Fatalf("delete: status %d (%+v)", code, out)
	}
	_, qout = s.post(t, "/v1/range", `{"vector":[0.5,0.5,0.5,0.5],"radius":0.0001}`)
	for _, r := range qout.Results {
		if r.ID == 9000 {
			t.Fatal("deleted object still in range results")
		}
	}
	code, out = s.postMutate(t, "/v1/delete", `{"id":9000,"vector":[0.5,0.5,0.5,0.5]}`)
	if code != http.StatusNotFound || out.OK {
		t.Fatalf("second delete: status %d (%+v), want 404", code, out)
	}

	// /v1/stats reports the write path: WAL counters and the delta size.
	resp, err := http.Get(s.ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Delta *int             `json:"delta"`
		WAL   map[string]int64 `json:"wal"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Delta == nil || stats.WAL == nil {
		t.Fatalf("stats lacks write-path fields: delta=%v wal=%v", stats.Delta, stats.WAL)
	}
	if stats.WAL["appends"] < 2 || stats.WAL["batches"] < 1 {
		t.Fatalf("wal counters: %v", stats.WAL)
	}
}

func TestE2EWriteReadOnlyTree(t *testing.T) {
	// A non-durable tree rejects writes with 403 before touching the body.
	s := newTestService(t, 50, Config{ParseObject: VectorObjects(4)})
	for _, path := range []string{"/v1/insert", "/v1/delete"} {
		code, out := s.postMutate(t, path, `{"id":1,"vector":[0.1,0.2,0.3,0.4]}`)
		if code != http.StatusForbidden {
			t.Fatalf("%s on read-only tree: status %d (%+v), want 403", path, code, out)
		}
	}
}

func TestE2EWriteBadInput(t *testing.T) {
	s := newDurableTestService(t, 50, Config{})
	cases := []struct {
		name, path, body string
	}{
		{"missing id", "/v1/insert", `{"vector":[0.1,0.2,0.3,0.4]}`},
		{"reserved id", "/v1/insert", `{"id":9223372036854775808,"vector":[0.1,0.2,0.3,0.4]}`},
		{"no object", "/v1/insert", `{"id":5}`},
		{"wrong dim", "/v1/insert", `{"id":5,"vector":[0.1,0.2]}`},
		{"missing id", "/v1/delete", `{"vector":[0.1,0.2,0.3,0.4]}`},
		{"text on vector index", "/v1/insert", `{"id":5,"query":"hello"}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(s.ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400", tc.path, tc.name, resp.StatusCode)
		}
	}
}

func TestE2EWriteDrain(t *testing.T) {
	// Once Shutdown begins, new writes bounce with 503: nothing reaches the
	// WAL after the drain starts, so Close leaves a clean log.
	s := newDurableTestService(t, 50, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	code, _ := s.postMutate(t, "/v1/insert", `{"id":9000,"vector":[0.5,0.5,0.5,0.5]}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("insert during drain: status %d, want 503", code)
	}
}

// TestNewRequiresTree pins the constructor's validation.
func TestNewRequiresTree(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a nil tree")
	}
}

// TestExpiredInQueue: a request whose deadline lapses while still queued is
// answered 504 with empty partials rather than executed.
func TestExpiredInQueue(t *testing.T) {
	s := newTestService(t, 200, Config{Workers: 1, QueueDepth: 1})
	s.dist.gate.Store(true)
	first := make(chan int, 1)
	go func() {
		resp, err := http.Post(s.ts.URL+"/v1/knn", "application/json",
			strings.NewReader(`{"vector":[0.5,0.5,0.5,0.5],"k":3}`))
		if err != nil {
			first <- -1
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	<-s.dist.started

	// Queued behind the parked query with a 20ms deadline: it expires before
	// a worker picks it up.
	code, out := s.post(t, "/v1/knn", `{"vector":[0.5,0.5,0.5,0.5],"k":3,"timeout_ms":20}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("expired-in-queue: status %d, want 504", code)
	}
	if len(out.Results) != 0 || !out.Partial {
		t.Fatalf("expired-in-queue: %+v", out)
	}
	s.dist.gate.Store(false)
	close(s.dist.release)
	if c := <-first; c != http.StatusOK {
		t.Fatalf("parked query finished with %d", c)
	}
}
