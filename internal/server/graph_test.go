package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"spbtree/internal/core"
)

// TestE2EKNNModeANN pins /v1/knn's mode dial end to end: before a graph is
// built, mode=ann falls back to the exact path (identical answer, 200) and
// /v1/stats counts the fallback; after BuildGraph, the same request answers
// from the graph tier with high overlap against exact, and counts none; ef
// widens the beam.
func TestE2EKNNModeANN(t *testing.T) {
	s := newTestService(t, 500, Config{})
	q := `[0.5,0.5,0.5,0.5]`

	code, exact := s.post(t, "/v1/knn", `{"vector":`+q+`,"k":7}`)
	if code != http.StatusOK || len(exact.Results) != 7 {
		t.Fatalf("exact knn: status %d, %d results", code, len(exact.Results))
	}

	// No graph yet: ann must degrade to the exact answer, not fail.
	code, out := s.post(t, "/v1/knn", `{"vector":`+q+`,"k":7,"mode":"ann"}`)
	if code != http.StatusOK {
		t.Fatalf("ann without graph: status %d (%+v)", code, out)
	}
	if len(out.Results) != 7 {
		t.Fatalf("ann without graph: %d results", len(out.Results))
	}
	for i, r := range out.Results {
		if r.ID != exact.Results[i].ID {
			t.Fatalf("ann-without-graph result %d = id %d, exact fallback wants %d", i, r.ID, exact.Results[i].ID)
		}
	}
	if got := s.annExactFallbacks(t); got != 1 {
		t.Fatalf("ann_exact_fallbacks = %d after one fallback, want 1", got)
	}

	if err := s.tree.BuildGraph(core.GraphOptions{Seed: 11}); err != nil {
		t.Fatalf("BuildGraph: %v", err)
	}
	code, out = s.post(t, "/v1/knn", `{"vector":`+q+`,"k":7,"mode":"ann","ef":128}`)
	if code != http.StatusOK || len(out.Results) != 7 {
		t.Fatalf("ann with graph: status %d, %d results (%+v)", code, len(out.Results), out)
	}
	exactIDs := map[uint64]bool{}
	for _, r := range exact.Results {
		exactIDs[r.ID] = true
	}
	overlap := 0
	for i, r := range out.Results {
		if i > 0 && out.Results[i-1].Dist > r.Dist {
			t.Fatal("ann results not sorted")
		}
		if exactIDs[r.ID] {
			overlap++
		}
	}
	if overlap < 5 {
		t.Fatalf("ann overlap with exact top-7 is %d/7", overlap)
	}
	if out.Compdists <= 0 {
		t.Fatalf("ann answer missing cost metrics: %+v", out)
	}
	if got := s.annExactFallbacks(t); got != 1 {
		t.Fatalf("ann_exact_fallbacks = %d after a graph answer, want it to stay 1", got)
	}

	// mode=exact is explicit spelling of the default.
	code, out = s.post(t, "/v1/knn", `{"vector":`+q+`,"k":7,"mode":"exact"}`)
	if code != http.StatusOK || len(out.Results) != 7 {
		t.Fatalf("mode=exact: status %d, %d results", code, len(out.Results))
	}
	for i, r := range out.Results {
		if r.ID != exact.Results[i].ID {
			t.Fatalf("mode=exact result %d diverges from default", i)
		}
	}
}

// TestE2EKNNModeValidation pins the 400s around the mode/ef fields.
func TestE2EKNNModeValidation(t *testing.T) {
	s := newTestService(t, 60, Config{})
	q := `[0.5,0.5,0.5,0.5]`
	for _, tc := range []struct {
		name, path, body string
	}{
		{"unknown mode", "/v1/knn", `{"vector":` + q + `,"k":3,"mode":"fast"}`},
		{"negative ef", "/v1/knn", `{"vector":` + q + `,"k":3,"mode":"ann","ef":-1}`},
		{"huge ef", "/v1/knn", `{"vector":` + q + `,"k":3,"mode":"ann","ef":1000001}`},
		{"ef without ann", "/v1/knn", `{"vector":` + q + `,"k":3,"ef":32}`},
		{"mode on range", "/v1/range", `{"vector":` + q + `,"radius":0.2,"mode":"ann"}`},
	} {
		if code, out := s.post(t, tc.path, tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%+v)", tc.name, code, out)
		}
	}
}

// annExactFallbacks reads the admission block's ann_exact_fallbacks counter
// from /v1/stats.
func (s *testService) annExactFallbacks(t *testing.T) int64 {
	t.Helper()
	resp, err := http.Get(s.ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Admission map[string]int64 `json:"admission"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	n, ok := stats.Admission["ann_exact_fallbacks"]
	if !ok {
		t.Fatalf("/v1/stats admission block lacks ann_exact_fallbacks: %v", stats.Admission)
	}
	return n
}
