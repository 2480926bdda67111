// Package server exposes an SPB-tree as an HTTP query-and-write service on
// the standard library: range, kNN, approximate kNN and similarity-join
// endpoints with per-request deadlines, insert/delete endpoints backed by
// the durable write path (group-committed WAL, in-memory delta, background
// compaction), a bounded worker pool with admission control (429 when the
// queue is full), graceful shutdown that drains in-flight requests (503 for
// newcomers), and per-endpoint latency histograms published on /debug/vars.
//
// The service leans on the query engine's context plumbing: a request whose
// deadline expires mid-scan stops doing page I/O and distance computations
// at the next cancellation check and answers with the partial results
// verified so far plus a "canceled" marker — the serving-layer face of the
// library's partial-results-plus-typed-error contract. DESIGN.md §8
// describes the architecture.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spbtree/internal/core"
	"spbtree/internal/obs"
)

// Config configures New.
type Config struct {
	// Tree is the index to serve. Exactly one of Tree and Backend is
	// required; a Tree is shorthand for Backend: NewTreeBackend(Tree).
	Tree *core.Tree
	// Backend is the index to serve when it is not a single local tree —
	// e.g. a cluster router (spbserve's -cluster mode mounts one here).
	Backend Backend
	// ParseQuery turns a validated request into a query object; required for
	// the range/kNN endpoints (VectorParser and TextParser cover the common
	// cases).
	ParseQuery ParseQueryFunc
	// ParseObject turns a validated mutation request into the object to
	// insert or delete; required for the /v1/insert and /v1/delete endpoints
	// (VectorObjects and TextObjects cover the common cases). Mutations also
	// need a durable tree (core.CreateDurable/OpenDurable) — on a read-only
	// tree the write endpoints answer 403.
	ParseObject ParseObjectFunc
	// Workers bounds concurrently executing queries; 0 selects GOMAXPROCS.
	Workers int
	// QueueDepth bounds queries admitted but not yet executing; beyond it
	// requests are rejected with 429. 0 selects 2×Workers.
	QueueDepth int
	// DefaultTimeout is the per-request deadline when the request names none;
	// 0 selects 5s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps request-supplied deadlines; 0 selects 60s.
	MaxTimeout time.Duration
	// MaxBodyBytes caps request bodies; 0 selects 1 MiB.
	MaxBodyBytes int64
	// MetricsName, when non-empty, publishes the server's per-endpoint
	// aggregates in the process-wide expvar registry under this name (visible
	// on /debug/vars). Publishing an already-used name is a no-op.
	MetricsName string
}

// Server serves similarity queries over HTTP. Create it with New, mount
// Handler on an http.Server, and call Shutdown to drain.
type Server struct {
	tree     Backend
	parse    ParseQueryFunc
	parseObj ParseObjectFunc

	defaultTimeout time.Duration
	maxTimeout     time.Duration
	maxBody        int64

	mux   *http.ServeMux
	tasks chan *task

	inflight  sync.WaitGroup
	workersWG sync.WaitGroup
	draining  atomic.Bool
	drainDone chan struct{}
	stopOnce  sync.Once

	// reg aggregates per-endpoint request metrics: latency histograms over
	// the whole request (queueing included) and the queries' compdists/PA.
	reg obs.Registry
	// admission counters, published alongside reg.
	rejectedBusy     atomic.Int64
	rejectedDraining atomic.Int64
	rejectedReadOnly atomic.Int64
	badRequests      atomic.Int64
	canceledQueries  atomic.Int64
}

// task is one admitted query waiting for a pool worker. Its lifecycle is a
// compare-and-swap race between the worker (queued→running, then executes)
// and the handler's deadline branch (queued→abandoned, responds immediately
// without waiting for a pool slot). Exactly one side wins, so the handler
// never reads results a worker is still writing.
type task struct {
	ctx   context.Context
	fn    func()
	ran   bool
	state atomic.Int32 // taskQueued → taskRunning | taskAbandoned
	done  chan struct{}
}

// task lifecycle states.
const (
	taskQueued int32 = iota
	taskRunning
	taskAbandoned
)

// New builds a Server and starts its worker pool. The caller owns the
// lifecycle: serve Handler, then Shutdown.
func New(cfg Config) (*Server, error) {
	backend := cfg.Backend
	if backend == nil {
		if cfg.Tree == nil {
			return nil, fmt.Errorf("server: one of Config.Tree and Config.Backend is required")
		}
		backend = NewTreeBackend(cfg.Tree)
	} else if cfg.Tree != nil {
		return nil, fmt.Errorf("server: Config.Tree and Config.Backend are mutually exclusive")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	queue := cfg.QueueDepth
	if queue <= 0 {
		queue = 2 * workers
	}
	s := &Server{
		tree:           backend,
		parse:          cfg.ParseQuery,
		parseObj:       cfg.ParseObject,
		defaultTimeout: cfg.DefaultTimeout,
		maxTimeout:     cfg.MaxTimeout,
		maxBody:        cfg.MaxBodyBytes,
		tasks:          make(chan *task, queue),
		drainDone:      make(chan struct{}),
	}
	if s.defaultTimeout <= 0 {
		s.defaultTimeout = 5 * time.Second
	}
	if s.maxTimeout <= 0 {
		s.maxTimeout = 60 * time.Second
	}
	if s.maxBody <= 0 {
		s.maxBody = 1 << 20
	}
	for i := 0; i < workers; i++ {
		s.workersWG.Add(1)
		go s.worker()
	}
	s.routes()
	if cfg.MetricsName != "" {
		obs.Publish(cfg.MetricsName, func() interface{} { return s.metricsSnapshot() })
	}
	return s, nil
}

// worker executes admitted tasks. Tasks whose deadline expired while queued
// are skipped (ran stays false; the handler answers canceled-with-no-
// partials), and tasks the handler already abandoned at their deadline are
// dropped outright — nobody is waiting on them.
func (s *Server) worker() {
	defer s.workersWG.Done()
	for t := range s.tasks {
		if !t.state.CompareAndSwap(taskQueued, taskRunning) {
			continue // abandoned by its handler
		}
		if t.ctx.Err() == nil {
			t.fn()
			t.ran = true
		}
		close(t.done)
	}
}

// routes mounts every endpoint. Go 1.22 method patterns give 405 for wrong
// methods for free.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/range", s.handleQuery(core.OpRange))
	s.mux.HandleFunc("POST /v1/knn", s.handleQuery(core.OpKNN))
	s.mux.HandleFunc("POST /v1/knn/approx", s.handleQuery(core.OpKNNApprox))
	s.mux.HandleFunc("POST /v1/join", s.handleQuery(core.OpJoin))
	s.mux.HandleFunc("POST /v1/insert", s.handleMutate(opInsert))
	s.mux.HandleFunc("POST /v1/delete", s.handleMutate(opDelete))
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the server: new requests are answered 503 immediately,
// in-flight and queued queries run to completion (their own deadlines bound
// how long that takes), then the worker pool exits. ctx bounds the wait; on
// expiry the pool is stopped anyway and ctx's error returned. Shutdown is
// idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	waited := make(chan struct{})
	go func() { s.inflight.Wait(); close(waited) }()
	var err error
	select {
	case <-waited:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.stopOnce.Do(func() {
		close(s.tasks)
		close(s.drainDone)
	})
	if err == nil {
		s.workersWG.Wait()
	}
	return err
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Metrics returns the per-endpoint aggregate registry (request latency
// histograms including queueing, plus the executed queries' compdists/PA).
func (s *Server) Metrics() *obs.Registry { return &s.reg }

// resultJSON is one range/kNN answer on the wire.
type resultJSON struct {
	// ID is the answer object's identifier.
	ID uint64 `json:"id"`
	// Dist is the (possibly Lemma 2 upper-bounded) distance to the query.
	Dist float64 `json:"dist"`
	// Exact reports whether Dist was actually computed.
	Exact bool `json:"exact"`
}

// pairJSON is one join answer on the wire.
type pairJSON struct {
	// QID and OID identify the joined pair.
	QID uint64 `json:"q_id"`
	OID uint64 `json:"o_id"`
	// Dist is d(q, o).
	Dist float64 `json:"dist"`
}

// response is the JSON body of every query endpoint.
type response struct {
	// Results holds range/kNN answers; Pairs holds join answers.
	Results []resultJSON `json:"results,omitempty"`
	Pairs   []pairJSON   `json:"pairs,omitempty"`
	// Count is len(Results)+len(Pairs), present even when empty.
	Count int `json:"count"`
	// Partial marks an answer cut short by cancellation or a storage error;
	// Error carries the cause.
	Partial bool   `json:"partial,omitempty"`
	Error   string `json:"error,omitempty"`
	// Compdists and PageAccesses are the query's cost in the paper's metrics.
	Compdists    int64 `json:"compdists"`
	PageAccesses int64 `json:"page_accesses"`
	// ElapsedUS is the query's wall time in the backend, in microseconds:
	// admission queueing excluded; behind a cluster router it covers the whole
	// gather — the scatter, the wire and the slowest node's forest.
	ElapsedUS int64 `json:"elapsed_us"`
	// Plan reports how a scatter-gather query visited its shards (DESIGN.md
	// §15); absent on a single-tree backend.
	Plan *planJSON `json:"plan,omitempty"`
}

// planJSON is the wire rendering of core.PlanInfo.
type planJSON struct {
	ShardsTotal  int  `json:"shards_total,omitempty"`
	ShardsPruned int  `json:"shards_pruned,omitempty"`
	Staged       bool `json:"staged,omitempty"`
}

// mutateResponse is the JSON body of /v1/insert and /v1/delete.
type mutateResponse struct {
	// OK reports the mutation was acknowledged: on a durable tree its WAL
	// record survived a group commit before this response was written.
	OK bool `json:"ok"`
	// Op echoes "insert" or "delete"; ID echoes the mutated object's id.
	Op string `json:"op"`
	ID uint64 `json:"id"`
	// Objects is the live object count after the mutation; Delta is how many
	// buffered mutations await background compaction.
	Objects int `json:"objects"`
	Delta   int `json:"delta"`
	// Error carries the failure cause when OK is false.
	Error string `json:"error,omitempty"`
	// ElapsedUS is the request's wall time in microseconds (queueing
	// included — for writes the queue wait is part of the acked latency).
	ElapsedUS int64 `json:"elapsed_us"`
}

// errorJSON writes a plain JSON error with the given status.
func errorJSON(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// admit is the path every POST endpoint shares, from the first byte to the
// worker pool and back: refuse while draining (503) or, for a write, on a
// read-only index (403); decode and validate the body (413, 400); let plan
// turn the request into the closure a worker will run, surfacing parse and
// configuration errors before admission (400); derive the request deadline;
// pass admission control (503, 429 + Retry-After); and wait for the worker or
// the deadline, whichever comes first. ok is false when admit has already
// written the response. Otherwise err is the closure's error — or
// ErrCanceled when it never ran, so nothing it would have written exists.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, op string, write bool,
	plan func(Request) (func(context.Context) error, error)) (req Request, ok bool, err error) {
	if s.draining.Load() {
		s.rejectDraining(w)
		return req, false, nil
	}
	if write && !s.tree.Writable() {
		s.rejectedReadOnly.Add(1)
		errorJSON(w, http.StatusForbidden,
			"index is read-only: writes need a durable index (build with spbtool build -durable)")
		return req, false, nil
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	req, err = DecodeRequest(r.Body, op)
	var run func(context.Context) error
	if err == nil {
		run, err = plan(req)
	}
	if err != nil {
		s.badRequests.Add(1)
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		errorJSON(w, status, err.Error())
		return req, false, nil
	}

	timeout := s.defaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.maxTimeout {
		timeout = s.maxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	t := &task{ctx: ctx, done: make(chan struct{})}
	t.fn = func() { err = run(ctx) }

	// Admission control: the inflight count is taken before the draining
	// re-check so Shutdown's Wait covers every request that could still
	// enqueue; the non-blocking send bounds queued work at QueueDepth.
	s.inflight.Add(1)
	defer s.inflight.Done()
	if s.draining.Load() {
		s.rejectDraining(w)
		return req, false, nil
	}
	select {
	case s.tasks <- t:
	default:
		s.rejectedBusy.Add(1)
		w.Header().Set("Retry-After", "1")
		errorJSON(w, http.StatusTooManyRequests, "query queue is full")
		return req, false, nil
	}
	select {
	case <-t.done:
	case <-ctx.Done():
		// Deadline expired before a worker freed up. Try to take the task
		// back; if a worker claimed it in the meantime, its run is imminent
		// (it sees the same expired ctx) — wait it out.
		if !t.state.CompareAndSwap(taskQueued, taskAbandoned) {
			<-t.done
		}
	}
	if !t.ran {
		// Never executed (expired or abandoned while queued): canceled with
		// no partials, and for a write nothing was logged — it is guaranteed
		// absent.
		err = fmt.Errorf("%w: %w", core.ErrCanceled, context.Cause(ctx))
	}
	return req, true, err
}

// handleQuery returns the handler for one query operation: admit it, execute
// with the context threaded through the whole read path, and render full or
// partial results.
func (s *Server) handleQuery(op string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var resp response
		var qs core.QueryStats
		_, ok, qerr := s.admit(w, r, op, false, func(req Request) (func(context.Context) error, error) {
			return s.planQuery(op, req, &resp, &qs)
		})
		if !ok {
			return
		}
		status := http.StatusOK
		switch {
		case qerr == nil:
		case errors.Is(qerr, core.ErrCanceled):
			s.canceledQueries.Add(1)
			status = http.StatusGatewayTimeout
			resp.Partial = true
			resp.Error = qerr.Error()
		default:
			status = http.StatusInternalServerError
			resp.Partial = true
			resp.Error = qerr.Error()
		}
		resp.Count = len(resp.Results) + len(resp.Pairs)
		resp.Compdists = qs.Compdists
		resp.PageAccesses = qs.PageAccesses()
		resp.ElapsedUS = qs.Elapsed.Microseconds()
		if p := qs.Plan; p != (core.PlanInfo{}) {
			resp.Plan = &planJSON{ShardsTotal: p.ShardsTotal, ShardsPruned: p.ShardsPruned, Staged: p.Staged}
		}
		s.reg.Op(op).Observe(qs.Compdists, qs.IndexPA, qs.DataPA, int64(resp.Count), time.Since(start), qerr != nil)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(resp)
	}
}

// handleMutate returns the handler for one mutation operation. Writes flow
// through the same admission control as queries: the worker pool bounds
// concurrent mutators (the WAL's group commit batches their fsyncs), the
// queue bounds admitted-but-waiting requests at 429, and draining rejects
// newcomers with 503 so Shutdown-then-Close leaves no write half done. The
// request deadline governs only time spent queued — once a worker starts a
// mutation it runs to its WAL acknowledgement, because a write that already
// hit the log must not be reported as canceled.
func (s *Server) handleMutate(op string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		req, ok, merr := s.admit(w, r, op, true, func(req Request) (func(context.Context) error, error) {
			if s.parseObj == nil {
				return nil, errors.New("server: no ParseObject configured")
			}
			obj, err := s.parseObj(*req.ID, req)
			if err != nil {
				return nil, err
			}
			if op == opInsert {
				return func(ctx context.Context) error { return s.tree.Insert(ctx, obj) }, nil
			}
			return func(ctx context.Context) error { return s.tree.Delete(ctx, obj) }, nil
		})
		if !ok {
			return
		}
		resp := mutateResponse{Op: op, ID: *req.ID}
		status := http.StatusOK
		switch {
		case merr == nil:
			resp.OK = true
		case errors.Is(merr, core.ErrCanceled):
			s.canceledQueries.Add(1)
			status = http.StatusGatewayTimeout
			resp.Error = merr.Error()
		case errors.Is(merr, core.ErrNotFound):
			status = http.StatusNotFound
			resp.Error = merr.Error()
		case errors.Is(merr, core.ErrClosed):
			status = http.StatusServiceUnavailable
			resp.Error = merr.Error()
		default:
			status = http.StatusInternalServerError
			resp.Error = merr.Error()
		}
		resp.Objects = s.tree.Len()
		resp.Delta = s.tree.Delta()
		resp.ElapsedUS = time.Since(start).Microseconds()
		var acked int64
		if resp.OK {
			acked = 1
		}
		s.reg.Op(op).Observe(0, 0, 0, acked, time.Since(start), merr != nil)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(resp)
	}
}

// planQuery resolves a validated request into a closure executing the
// operation into resp and qs, surfacing parse/config errors before admission.
func (s *Server) planQuery(op string, req Request, resp *response, qs *core.QueryStats) (func(context.Context) error, error) {
	if op == core.OpJoin {
		if err := s.tree.CanJoin(); err != nil {
			return nil, badf("%s", err)
		}
		eps := *req.Eps
		return func(ctx context.Context) error {
			pairs, st, err := s.tree.SelfJoinWithStatsCtx(ctx, eps)
			*qs = st
			resp.Pairs = make([]pairJSON, len(pairs))
			for i, p := range pairs {
				resp.Pairs[i] = pairJSON{QID: p.QID, OID: p.OID, Dist: p.Dist}
			}
			return err
		}, nil
	}
	if s.parse == nil {
		return nil, fmt.Errorf("server: no ParseQuery configured")
	}
	q, err := s.parse(req)
	if err != nil {
		return nil, err
	}
	cq := req.coreQuery(op, q)
	return func(ctx context.Context) error {
		results, st, qerr := s.tree.Query(ctx, cq)
		if cq.Op == core.OpKNNGraph && errors.Is(qerr, core.ErrNoGraph) {
			// mode=ann is never an error just because no graph was built.
			results, st, qerr = s.tree.Query(ctx, cq.Exact())
		}
		*qs = st
		resp.Results = make([]resultJSON, len(results))
		for i, res := range results {
			resp.Results[i] = resultJSON{ID: res.Object.ID(), Dist: res.Dist, Exact: res.Exact}
		}
		return qerr
	}, nil
}

// rejectDraining answers a request arriving during shutdown drain.
func (s *Server) rejectDraining(w http.ResponseWriter) {
	s.rejectedDraining.Add(1)
	w.Header().Set("Retry-After", "1")
	errorJSON(w, http.StatusServiceUnavailable, "server is shutting down")
}

// handleStats reports the index's shape and both metric registries (the
// server's per-endpoint aggregates and the tree's per-operation aggregates).
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.metricsSnapshot())
}

// handleHealth is the liveness/readiness probe: 200 while serving, 503 once
// draining.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		errorJSON(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte(`{"status":"ok","objects":` + strconv.Itoa(s.tree.Len()) + `}`))
}

// metricsSnapshot is the JSON document served by /v1/stats and published on
// /debug/vars under Config.MetricsName.
func (s *Server) metricsSnapshot() map[string]interface{} {
	m := map[string]interface{}{
		"draining":  s.draining.Load(),
		"endpoints": s.reg.Snapshot(),
		"admission": map[string]int64{
			"rejected_busy":     s.rejectedBusy.Load(),
			"rejected_draining": s.rejectedDraining.Load(),
			"rejected_readonly": s.rejectedReadOnly.Load(),
			"bad_requests":      s.badRequests.Load(),
			"canceled_queries":  s.canceledQueries.Load(),
		},
	}
	for k, v := range s.tree.StatsFields() {
		m[k] = v
	}
	return m
}
