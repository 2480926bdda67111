package core

import (
	"context"
	"errors"
	"math"
	"testing"
)

// TestQueryValidate pins the request invariants in the one place they live:
// what Validate rejects comes back from Query as ErrInvalidQuery before any
// work, and the degenerate-but-legal requests answer empty with a nil error.
func TestQueryValidate(t *testing.T) {
	objs, tree := buildCtxTree(t, 300, 3, 71)
	q := objs[0]
	nan := math.NaN()
	for _, c := range []struct {
		name string
		q    Query
		ok   bool
	}{
		{"range", Query{Op: OpRange, Q: q, Radius: 0.2}, true},
		{"knn", Query{Op: OpKNN, Q: q, K: 3}, true},
		{"knn zero bound", Query{Op: OpKNN, Q: q, K: 3, Bounded: true}, true},
		{"knn infinite bound", Query{Op: OpKNN, Q: q, K: 3, Bounded: true, Bound: math.Inf(1)}, true},
		{"approx", Query{Op: OpKNNApprox, Q: q, K: 3, MaxVerify: 10}, true},
		{"approx non-positive budget", Query{Op: OpKNNApprox, Q: q, K: 3, MaxVerify: -1}, true},
		{"graph", Query{Op: OpKNNGraph, Q: q, K: 3, Search: SearchOptions{Ef: 16}}, true},
		{"k zero", Query{Op: OpKNN, Q: q}, true},
		{"negative radius", Query{Op: OpRange, Q: q, Radius: -1}, true},

		{"zero value", Query{}, false},
		{"unknown op", Query{Op: "nearest", Q: q, K: 3}, false},
		{"join is not a search", Query{Op: OpJoin, Q: q}, false},
		{"NaN radius", Query{Op: OpRange, Q: q, Radius: nan}, false},
		{"NaN bound", Query{Op: OpKNN, Q: q, K: 3, Bounded: true, Bound: nan}, false},
		{"bound on range", Query{Op: OpRange, Q: q, Radius: 1, Bounded: true, Bound: 1}, false},
		{"bound on approx", Query{Op: OpKNNApprox, Q: q, K: 3, MaxVerify: 5, Bounded: true, Bound: 1}, false},
		{"bound on graph", Query{Op: OpKNNGraph, Q: q, K: 3, Bounded: true, Bound: 1}, false},
		{"budget on exact", Query{Op: OpKNN, Q: q, K: 3, MaxVerify: 5}, false},
		{"budget on range", Query{Op: OpRange, Q: q, Radius: 1, MaxVerify: 5}, false},
		{"search on exact", Query{Op: OpKNN, Q: q, K: 3, Search: SearchOptions{Ef: 16}}, false},
		{"search on approx", Query{Op: OpKNNApprox, Q: q, K: 3, MaxVerify: 5, Search: SearchOptions{TargetRecall: 0.9}}, false},
	} {
		err := c.q.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", c.name, err, c.ok)
		}
		if !c.ok {
			if !errors.Is(err, ErrInvalidQuery) {
				t.Errorf("%s: Validate error %v is not ErrInvalidQuery", c.name, err)
			}
			res, qs, qerr := tree.Query(context.Background(), c.q)
			if !errors.Is(qerr, ErrInvalidQuery) || len(res) != 0 || qs.Compdists != 0 {
				t.Errorf("%s: Query = (%d results, %d compdists, %v), want a bare ErrInvalidQuery",
					c.name, len(res), qs.Compdists, qerr)
			}
		}
	}
	for _, empty := range []Query{{Op: OpKNN, Q: q, K: 0}, {Op: OpKNN, Q: q, K: -2}, {Op: OpRange, Q: q, Radius: -1}} {
		res, _, err := tree.Query(context.Background(), empty)
		if err != nil || len(res) != 0 {
			t.Errorf("%+v: got %d results, err %v; want empty, nil", empty, len(res), err)
		}
	}
	// A non-positive budget runs, and reports as, the exact search.
	want, _, err := tree.Query(context.Background(), Query{Op: OpKNN, Q: q, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	got, qs, err := tree.Query(context.Background(), Query{Op: OpKNNApprox, Q: q, K: 5, MaxVerify: -1})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "approx with no budget", want, got)
	if qs.Op != OpKNN {
		t.Errorf("approx with no budget reported Op %q, want %q", qs.Op, OpKNN)
	}
}
