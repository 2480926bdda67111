package server

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"spbtree/internal/core"
	"spbtree/internal/metric"
	"spbtree/internal/sfc"
)

// fuzzOps maps the fuzzer's op selector to an endpoint.
var fuzzOps = []struct{ op, path string }{
	{core.OpRange, "/v1/range"},
	{core.OpKNN, "/v1/knn"},
	{core.OpJoin, "/v1/join"},
}

// FuzzDecodeRequest feeds arbitrary bytes to the JSON request decoder and
// through the full HTTP handler for every endpoint: DecodeRequest must never
// panic and must answer malformed input with an error matching ErrBadRequest,
// and the handler must map every decode/validation failure to a 4xx — never
// a 5xx, never a hang, regardless of NaN/Inf radii, negative k, wrong-
// dimensional or oversized vectors, unknown fields or trailing garbage.
func FuzzDecodeRequest(f *testing.F) {
	seeds := []string{
		`{"vector":[0.1,0.2,0.3,0.4],"radius":0.5}`,
		`{"vector":[0.1,0.2,0.3,0.4],"k":3}`,
		`{"vector":[0.1,0.2,0.3,0.4],"k":3,"max_verify":10}`,
		`{"eps":0.25}`,
		`{"vector":[0.1],"radius":0.5}`,
		`{"vector":[1e999],"radius":0.5}`,
		`{"radius":-1}`,
		`{"radius":NaN}`,
		`{"radius":Infinity}`,
		`{"k":-5,"vector":[0.1,0.2,0.3,0.4]}`,
		`{"k":999999999999999999999,"vector":[0.1,0.2,0.3,0.4]}`,
		`{"vector":[` + strings.Repeat("0.5,", 5000) + `0.5],"radius":0.1}`,
		`{"query":"` + strings.Repeat("a", 70000) + `","k":1}`,
		`{"vector":[0.1,0.2,0.3,0.4],"radius":0.5} trailing`,
		`{"vector":[0.1,0.2,0.3,0.4],"radius":0.5,"bogus":true}`,
		`{"timeout_ms":-1,"eps":0.1}`,
		`{"timeout_ms":86400000,"eps":0.1}`,
		`[]`, `null`, `0`, `"str"`, `{`, ``, "\x00\xff\xfe",
		`{"vector":"not an array","k":1}`,
		`{"eps":null}`,
		// The graph tier's knobs, and a verification budget on every
		// endpoint, which no request carries any more.
		`{"vector":[0.1,0.2,0.3,0.4],"k":3,"mode":"ann"}`,
		`{"vector":[0.1,0.2,0.3,0.4],"k":3,"mode":"ann","ef":16}`,
		`{"vector":[0.1,0.2,0.3,0.4],"k":3,"mode":"exact"}`,
		`{"vector":[0.1,0.2,0.3,0.4],"k":3,"mode":"fast"}`,
		`{"vector":[0.1,0.2,0.3,0.4],"k":3,"mode":"ann","ef":-1}`,
		`{"vector":[0.1,0.2,0.3,0.4],"radius":0.5,"max_verify":10}`,
		`{"vector":[0.1,0.2,0.3,0.4],"k":3,"max_verify":0}`,
		`{"eps":0.25,"max_verify":10}`,
		`{"query":"abc","k":3,"max_verify":-1}`,
	}
	for _, s := range seeds {
		for opIdx := range fuzzOps {
			f.Add([]byte(s), byte(opIdx))
		}
	}

	// One tiny served tree for the handler-level property; queries that do
	// validate execute against it under the default deadline.
	const dim = 4
	rng := rand.New(rand.NewSource(3))
	objs := make([]metric.Object, 50)
	for i := range objs {
		coords := make([]float64, dim)
		for d := range coords {
			coords[d] = rng.Float64()
		}
		objs[i] = metric.NewVector(uint64(i), coords)
	}
	tree, err := core.Build(objs, core.Options{
		Distance: metric.L2(dim), Codec: metric.VectorCodec{Dim: dim},
		NumPivots: 2, Curve: sfc.ZOrder, Seed: 3,
	})
	if err != nil {
		f.Fatal(err)
	}
	srv, err := New(Config{Tree: tree, ParseQuery: VectorParser(dim), Workers: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Shutdown(context.Background()) })
	handler := srv.Handler()

	f.Fuzz(func(t *testing.T, data []byte, opIdx byte) {
		sel := fuzzOps[int(opIdx)%len(fuzzOps)]

		// Decoder level: never panics, failures are typed.
		req, err := DecodeRequest(bytes.NewReader(data), sel.op)
		if err != nil && !errors.Is(err, ErrBadRequest) {
			t.Fatalf("decode error not ErrBadRequest: %v", err)
		}
		if err == nil && len(req.Vector) > MaxVectorDim {
			t.Fatalf("validated request exceeds MaxVectorDim: %d", len(req.Vector))
		}

		// Handler level: malformed input is always a 4xx, valid input never
		// a 5xx (the tiny tree finishes far inside the default deadline).
		rec := httptest.NewRecorder()
		hreq := httptest.NewRequest("POST", sel.path, bytes.NewReader(data))
		handler.ServeHTTP(rec, hreq)
		if err != nil && (rec.Code < 400 || rec.Code > 499) {
			t.Fatalf("invalid body answered %d, want 4xx (decode err: %v)", rec.Code, err)
		}
		if rec.Code >= 500 && rec.Code != 504 {
			t.Fatalf("request answered %d: %s", rec.Code, rec.Body.String())
		}
	})
}
