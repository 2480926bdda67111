package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"spbtree/internal/core"
	"spbtree/internal/metric"
)

// Request bounds: a decoded body may not carry a query vector longer than
// MaxVectorDim, ask for more than MaxK neighbors, or budget more than MaxK
// verifications — caps that keep a single malicious request from turning
// into an unbounded allocation or an effectively unbounded scan.
const (
	// MaxVectorDim caps the query vector length a request may carry.
	MaxVectorDim = 4096
	// MaxK caps k and max_verify.
	MaxK = 100_000
	// MaxQueryLen caps the textual query form's length in bytes.
	MaxQueryLen = 1 << 16
)

// QueryID is the object id given to query objects parsed from requests. It
// sits above any plausible dataset id so results never collide with it.
// Mutation requests must keep their ids below it.
const QueryID = uint64(1) << 63

// Mutation operation names, the write-path peers of the core.Op* query
// constants. They key the server's per-endpoint metrics registry.
const (
	opInsert = "insert"
	opDelete = "delete"
)

// Request is the JSON body accepted by the query endpoints. Exactly the
// fields the endpoint needs must validate: /v1/range needs a query object and
// radius, /v1/knn a query object and k, /v1/knn/approx additionally
// max_verify, /v1/join only eps. timeout_ms optionally tightens (never
// extends beyond the server's MaxTimeout) the per-request deadline.
type Request struct {
	// Vector is the query object for vector-valued trees.
	Vector []float64 `json:"vector,omitempty"`
	// Query is the textual query form for non-vector trees (same line format
	// as spbtool input files).
	Query string `json:"query,omitempty"`
	// ID identifies the object for /v1/insert and /v1/delete (required there,
	// must stay below QueryID). The object itself rides in Vector or Query —
	// deletes need it too, because locating an object takes its pivot mapping.
	ID *uint64 `json:"id,omitempty"`
	// Radius is the range-query radius (required for /v1/range; 0 is legal).
	Radius *float64 `json:"radius,omitempty"`
	// K is the neighbor count for /v1/knn and /v1/knn/approx.
	K int `json:"k,omitempty"`
	// MaxVerify is the verification budget for /v1/knn/approx (0 falls back
	// to the exact search).
	MaxVerify int `json:"max_verify,omitempty"`
	// Mode selects /v1/knn's search tier: "exact" (the default) or "ann",
	// which answers from the approximate graph tier (DESIGN.md §14) and
	// falls back to exact search when the index has no graph.
	Mode string `json:"mode,omitempty"`
	// Ef is the beam width for mode=ann (0 selects the library default; it is
	// raised to k internally).
	Ef int `json:"ef,omitempty"`
	// Eps is the join threshold (required for /v1/join).
	Eps *float64 `json:"eps,omitempty"`
	// TimeoutMS bounds this request's execution in milliseconds.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ErrBadRequest matches (errors.Is) every decode or validation failure of a
// request body; the handlers map it to HTTP 400.
var ErrBadRequest = errors.New("server: bad request")

// badf wraps a validation failure in ErrBadRequest.
func badf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
}

// DecodeRequest parses and validates one endpoint's JSON request body. It
// never panics on malformed input — arbitrary bytes either produce a fully
// validated Request or an error matching ErrBadRequest (the fuzz target
// FuzzDecodeRequest pins this down). Size limiting happens a layer up via
// http.MaxBytesReader; length-bearing fields are re-checked here anyway.
func DecodeRequest(body io.Reader, op string) (Request, error) {
	var req Request
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		// Keep the cause in the chain: the handler maps an underlying
		// *http.MaxBytesError to 413 instead of 400.
		return Request{}, fmt.Errorf("%w: decode body: %w", ErrBadRequest, err)
	}
	// Reject trailing garbage after the JSON object.
	if dec.More() {
		return Request{}, badf("trailing data after request object")
	}
	if err := req.validate(op); err != nil {
		return Request{}, err
	}
	return req, nil
}

// validate applies the per-endpoint field requirements.
func (req *Request) validate(op string) error {
	if len(req.Vector) > MaxVectorDim {
		return badf("vector has %d components, limit %d", len(req.Vector), MaxVectorDim)
	}
	for i, v := range req.Vector {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return badf("vector component %d is not finite", i)
		}
	}
	if len(req.Query) > MaxQueryLen {
		return badf("query is %d bytes, limit %d", len(req.Query), MaxQueryLen)
	}
	if req.TimeoutMS < 0 {
		return badf("timeout_ms must be non-negative")
	}
	if op != core.OpKNN && (req.Mode != "" || req.Ef != 0) {
		return badf("mode and ef apply only to /v1/knn")
	}
	needsObject := op != core.OpJoin
	hasObject := len(req.Vector) > 0 || req.Query != ""
	if needsObject && !hasObject {
		return badf("request needs a query object (vector or query)")
	}
	if len(req.Vector) > 0 && req.Query != "" {
		return badf("vector and query are mutually exclusive")
	}
	switch op {
	case core.OpRange:
		if req.Radius == nil {
			return badf("range query needs radius")
		}
		if !finiteNonNegative(*req.Radius) {
			return badf("radius must be finite and non-negative")
		}
	case core.OpKNN, core.OpKNNApprox:
		if req.K <= 0 {
			return badf("k must be positive")
		}
		if req.K > MaxK {
			return badf("k is %d, limit %d", req.K, MaxK)
		}
		if op == core.OpKNNApprox {
			if req.MaxVerify < 0 {
				return badf("max_verify must be non-negative")
			}
			if req.MaxVerify > MaxK {
				return badf("max_verify is %d, limit %d", req.MaxVerify, MaxK)
			}
		}
		if op == core.OpKNN {
			switch req.Mode {
			case "", "exact", "ann":
			default:
				return badf("mode must be \"exact\" or \"ann\", got %q", req.Mode)
			}
			if req.Ef < 0 {
				return badf("ef must be non-negative")
			}
			if req.Ef > MaxK {
				return badf("ef is %d, limit %d", req.Ef, MaxK)
			}
		}
	case core.OpJoin:
		if hasObject {
			return badf("join takes no query object")
		}
		if req.Eps == nil {
			return badf("join needs eps")
		}
		if !finiteNonNegative(*req.Eps) {
			return badf("eps must be finite and non-negative")
		}
	case opInsert, opDelete:
		if req.ID == nil {
			return badf("%s needs id", op)
		}
		if *req.ID >= QueryID {
			return badf("id %d is in the reserved query-id range (>= 2^63)", *req.ID)
		}
	default:
		return badf("unknown operation %q", op)
	}
	if op == core.OpRange || op == core.OpKNN || op == core.OpKNNApprox {
		// The library's own request invariants (ef only with mode=ann, ...).
		if err := req.coreQuery(op, nil).Validate(); err != nil {
			return badf("%v", err)
		}
	}
	return nil
}

// coreQuery renders a query endpoint's request as the library's request
// value over the parsed query object q: /v1/knn with mode=ann is the graph
// operation, every HTTP query is Timed.
func (req *Request) coreQuery(op string, q metric.Object) core.Query {
	cq := core.Query{Op: op, Q: q, K: req.K, Search: core.SearchOptions{Ef: req.Ef}, Timed: true}
	if req.Radius != nil {
		cq.Radius = *req.Radius
	}
	if op == core.OpKNN && req.Mode == "ann" {
		cq.Op = core.OpKNNGraph
	}
	if op == core.OpKNNApprox {
		cq.MaxVerify = req.MaxVerify
	}
	return cq
}

// finiteNonNegative reports whether v is a usable radius/threshold.
func finiteNonNegative(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

// ParseQueryFunc turns a validated Request into the query object of the
// tree's metric space. The server calls it only after validation, so
// implementations see either a non-empty Vector or a non-empty Query.
type ParseQueryFunc func(Request) (metric.Object, error)

// VectorParser returns a ParseQueryFunc for dim-dimensional vector trees: it
// accepts the "vector" field (exact dimensionality) and rejects textual
// queries.
func VectorParser(dim int) ParseQueryFunc {
	return func(req Request) (metric.Object, error) {
		if len(req.Vector) == 0 {
			return nil, badf("this index serves vector queries; use the vector field")
		}
		if len(req.Vector) != dim {
			return nil, badf("vector has %d components, index dimensionality is %d", len(req.Vector), dim)
		}
		return metric.NewVector(QueryID, req.Vector), nil
	}
}

// TextParser returns a ParseQueryFunc adapting a line parser (the spbtool
// input format) for textual query objects; it rejects the vector field.
func TextParser(parse func(id uint64, line string) (metric.Object, error)) ParseQueryFunc {
	return func(req Request) (metric.Object, error) {
		if req.Query == "" {
			return nil, badf("this index serves textual queries; use the query field")
		}
		obj, err := parse(QueryID, req.Query)
		if err != nil {
			return nil, badf("parse query: %v", err)
		}
		return obj, nil
	}
}

// ParseObjectFunc turns a validated mutation request into the object to
// insert or delete, carrying the request's id (unlike query parsing, which
// pins the reserved QueryID). The server calls it only after validation, so
// implementations see a non-nil id below QueryID and either a non-empty
// Vector or a non-empty Query.
type ParseObjectFunc func(id uint64, req Request) (metric.Object, error)

// VectorObjects returns a ParseObjectFunc for dim-dimensional vector trees.
func VectorObjects(dim int) ParseObjectFunc {
	return func(id uint64, req Request) (metric.Object, error) {
		if len(req.Vector) == 0 {
			return nil, badf("this index stores vectors; use the vector field")
		}
		if len(req.Vector) != dim {
			return nil, badf("vector has %d components, index dimensionality is %d", len(req.Vector), dim)
		}
		return metric.NewVector(id, req.Vector), nil
	}
}

// TextObjects returns a ParseObjectFunc adapting a line parser (the spbtool
// input format) for textual objects; it rejects the vector field.
func TextObjects(parse func(id uint64, line string) (metric.Object, error)) ParseObjectFunc {
	return func(id uint64, req Request) (metric.Object, error) {
		if req.Query == "" {
			return nil, badf("this index stores textual objects; use the query field")
		}
		obj, err := parse(id, req.Query)
		if err != nil {
			return nil, badf("parse object: %v", err)
		}
		return obj, nil
	}
}
