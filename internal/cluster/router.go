package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spbtree/internal/core"
	"spbtree/internal/forest"
	"spbtree/internal/metric"
	"spbtree/internal/obs"
	"spbtree/internal/retry"
)

// Router fronts a cluster: it scatters each query once to the nodes owning
// shards (one RPC per node, carrying that node's shard group) and
// gather-merges the per-node answers with the forest's associative
// reductions, so the cluster's answer is byte-identical to the equivalent
// single-process forest. It plans nothing: which shards a query visits and in
// what order is decided by each node's forest over the shards it owns
// (DESIGN.md §15.4, §15.7).
//
// Unlike the in-process forest scatter (which stops dispatching on the
// first shard error, because all shards share a fate), the router's
// dispatch is failure-tolerant: a down or slow node must not suppress the
// healthy nodes' answers. Only context cancellation stops the fan-out;
// per-node failures become NodeErrors attached to the partial result
// (DESIGN.md §12.6). Router is safe for concurrent use.
type Router struct {
	codec metric.Codec

	placement atomic.Pointer[Placement]

	mu      sync.Mutex // guards clients
	clients map[string]*Client

	// Refresh, when non-nil, refetches the authoritative placement after a
	// node answers ErrNotOwner (the signal that a handoff completed since
	// this router last looked). The router swaps the new placement in and
	// retries the stale part of the query once.
	Refresh func(ctx context.Context) (*Placement, error)

	// reg aggregates per-node RPC latency histograms and call counters,
	// published on /debug/vars by Publish.
	reg obs.Registry
	// fanout counts node RPCs issued per scatter, by node name.
	fanout sync.Map // string → *atomic.Int64
}

// NewRouter returns a router over the given placement. codec decodes result
// objects coming off the wire.
func NewRouter(p *Placement, codec metric.Codec) (*Router, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	r := &Router{codec: codec, clients: make(map[string]*Client)}
	r.placement.Store(p)
	return r, nil
}

// Placement returns the router's current placement (do not mutate).
func (r *Router) Placement() *Placement { return r.placement.Load() }

// SetPlacement atomically swaps the placement — the flip step of a handoff.
// Queries in flight finish against the old copy; the old owner keeps
// serving reads until it is dropped, so the window is seamless.
func (r *Router) SetPlacement(p *Placement) error {
	if err := p.Validate(); err != nil {
		return err
	}
	r.placement.Store(p)
	return nil
}

// Publish exposes the router's per-node RPC metrics and fan-out counters on
// /debug/vars under name.
func (r *Router) Publish(name string) {
	r.reg.Publish(name)
	obs.Publish(name+"_fanout", func() interface{} {
		out := make(map[string]int64)
		r.fanout.Range(func(k, v interface{}) bool {
			out[k.(string)] = v.(*atomic.Int64).Load()
			return true
		})
		return out
	})
}

// Close closes every node connection.
func (r *Router) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.clients {
		c.Close()
	}
	r.clients = make(map[string]*Client)
	return nil
}

// client returns (dialing lazily) the connection to the named node.
func (r *Router) client(addr string) *Client {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.clients[addr]
	if !ok {
		c = NewClient(addr)
		r.clients[addr] = c
	}
	return c
}

// countFanout bumps the per-node scatter counter.
func (r *Router) countFanout(node string) {
	v, _ := r.fanout.LoadOrStore(node, new(atomic.Int64))
	v.(*atomic.Int64).Add(1)
}

// callNode performs one node RPC with metrics and transient-retry. Retries
// redial on connection-level failures only — a node mid-restart — and only
// for idempotent ops (every query is; mutations choose per-op).
func (r *Router) callNode(ctx context.Context, node, addr, op string, idempotent bool, kind byte, req, resp interface{}) error {
	r.countFanout(node)
	start := time.Now()
	c := r.client(addr)
	var err error
	if idempotent {
		err = retry.Do(ctx, transientRPC, func() error { return c.Call(ctx, kind, req, resp) })
	} else {
		err = c.Call(ctx, kind, req, resp)
	}
	r.reg.Op(op+"."+node).Observe(0, 0, 0, 0, time.Since(start), err != nil)
	return err
}

// nodeCall is one planned RPC of a scatter: the target node and the shards
// it answers for.
type nodeCall struct {
	node   string
	addr   string
	shards []int
}

// plan groups shards by their owner under p, one call per node in name
// order. A nil shards means every shard of the placement — the scatter of a
// whole query; a subset is the retry of a stale call after a refresh.
func plan(p *Placement, shards []int) []nodeCall {
	byOwner := p.ByOwner()
	if shards != nil {
		byOwner = make(map[string][]int)
		for _, s := range shards {
			byOwner[p.Owners[s]] = append(byOwner[p.Owners[s]], s)
		}
	}
	names := make([]string, 0, len(byOwner))
	for n := range byOwner {
		names = append(names, n)
	}
	sort.Strings(names)
	calls := make([]nodeCall, 0, len(names))
	for _, n := range names {
		calls = append(calls, nodeCall{node: n, addr: p.Nodes[n], shards: byOwner[n]})
	}
	return calls
}

// scatterQuery fans one query RPC out to every node owning shards under p
// and gathers per-node answers and errors; build renders the request for a
// node's shard group under the placement that call is planned on. Failed
// nodes become NodeErrors; healthy nodes' answers always come back. A node
// answering ErrNotOwner triggers one placement refresh and one retry of that
// node's shards against the new owners (the handoff-during-query path).
func (r *Router) scatterQuery(ctx context.Context, op string, p *Placement,
	build func(p *Placement, shards []int) (byte, interface{})) ([]rpcQueryResp, error) {

	calls := plan(p, nil)
	resps := make([]rpcQueryResp, len(calls))
	errs := make([]error, len(calls))
	var wg sync.WaitGroup
	for i, call := range calls {
		if ctx.Err() != nil {
			errs[i] = &NodeError{Node: call.node, Addr: call.addr,
				Err: fmt.Errorf("%w: %w", core.ErrCanceled, context.Cause(ctx))}
			continue
		}
		wg.Add(1)
		go func(i int, call nodeCall) {
			defer wg.Done()
			kind, req := build(p, call.shards)
			err := r.callNode(ctx, call.node, call.addr, op, true, kind, req, &resps[i])
			if err == nil {
				err = fromWireErr(resps[i].Err)
				resps[i].Err = nil
			}
			if err != nil {
				errs[i] = &NodeError{Node: call.node, Addr: call.addr, Err: err}
			}
		}(i, call)
	}
	wg.Wait()

	// Handoff raced the query: some node no longer owns its shards. Refresh
	// the placement and retry just those shards, once.
	if r.Refresh != nil && anyNotOwner(errs) {
		if np, rerr := r.Refresh(ctx); rerr == nil && np != nil {
			r.SetPlacement(np)
			for i, err := range errs {
				if err == nil || !errors.Is(err, ErrNotOwner) {
					continue
				}
				resps[i], errs[i] = rpcQueryResp{}, nil
				for _, rc := range plan(np, calls[i].shards) {
					var resp rpcQueryResp
					kind, req := build(np, rc.shards)
					rerr := r.callNode(ctx, rc.node, rc.addr, op, true, kind, req, &resp)
					if rerr == nil {
						rerr = fromWireErr(resp.Err)
						resp.Err = nil
					}
					if rerr != nil {
						errs[i] = &NodeError{Node: rc.node, Addr: rc.addr, Err: rerr}
					}
					resps[i].Results = append(resps[i].Results, resp.Results...)
					resps[i].Pairs = append(resps[i].Pairs, resp.Pairs...)
					resps[i].Stats.Merge(resp.Stats)
				}
			}
		}
	}
	return resps, errors.Join(errs...)
}

// anyNotOwner reports whether any per-node error is a stale-placement
// signal.
func anyNotOwner(errs []error) bool {
	for _, err := range errs {
		if err != nil && errors.Is(err, ErrNotOwner) {
			return true
		}
	}
	return false
}

// decodeResults reconstitutes wire results into core results.
func (r *Router) decodeResults(in []wireResult) ([]core.Result, error) {
	out := make([]core.Result, len(in))
	for i, wr := range in {
		obj, err := r.codec.Decode(wr.ID, wr.Data)
		if err != nil {
			return out[:i], err
		}
		out[i] = core.Result{Object: obj, Dist: wr.Dist, Exact: wr.Exact}
	}
	return out, nil
}

// gather merges per-node query responses into the whole query's answer:
// results decode and merge via core.MergeResults, stats accumulate via
// core.QueryStats.Merge.
func (r *Router) gather(q core.Query, resps []rpcQueryResp, err error) ([]core.Result, core.QueryStats, error) {
	per := make([][]core.Result, 0, len(resps))
	var stats core.QueryStats
	for _, resp := range resps {
		res, derr := r.decodeResults(resp.Results)
		per = append(per, res)
		stats.Merge(resp.Stats)
		if derr != nil {
			err = errors.Join(err, derr)
		}
	}
	out := core.MergeResults(q.Op, q.K, per)
	stats.Results = len(out)
	return out, stats, err
}

// Query answers one search request across the cluster: one scatter, one query
// RPC per owning node, gather. The router plans nothing — each node runs its
// shard group as a forest (forest.Query), which is where a range query's
// shards are pruned and an exact kNN is staged (DESIGN.md §15.4), and the
// request travels as the one query value says, Bounded and Bound included.
// In the merged QueryStats work counters add across nodes, the stage clocks
// are per-branch maxima, Plan folds the nodes' plans over the placement's
// shard count, and Elapsed is the router's own wall clock around the whole
// gather, the wire included. On node failures the healthy nodes' answers come
// back with one NodeError per failed node (joined); errors.Is(err,
// core.ErrCanceled) identifies deadline-canceled slices.
//
// The wire has no graph message, so OpKNNGraph answers core.ErrNoGraph and
// the caller degrades to Query.Exact as on a tree without a graph.
func (r *Router) Query(ctx context.Context, q core.Query) ([]core.Result, core.QueryStats, error) {
	if err := q.Validate(); err != nil {
		return nil, core.QueryStats{Op: q.Op}, err
	}
	if q.Op == core.OpKNNGraph {
		return nil, core.QueryStats{Op: q.Op}, fmt.Errorf("cluster: %w across the wire", core.ErrNoGraph)
	}
	start := time.Now()
	wq := wireObj{ID: q.Q.ID(), Data: q.Q.AppendBinary(nil)}
	p := r.placement.Load()
	resps, err := r.scatterQuery(ctx, q.Op, p, func(_ *Placement, shards []int) (byte, interface{}) {
		return wireQuery(shards, wq, q, deadlineUS(ctx))
	})
	res, qs, err := r.gather(q, resps, err)
	qs.Plan.ShardsTotal = p.Shards
	qs.Elapsed = time.Since(start)
	return res, qs, err
}

// wireQuery renders q as the wire request for one node's shard group; the
// query object travels encoded as wq.
func wireQuery(shards []int, wq wireObj, q core.Query, deadlineUS int64) (byte, interface{}) {
	q.Q = nil
	return kQuery, rpcQueryReq{Shards: shards, Q: wq, Query: q, DeadlineUS: deadlineUS}
}

// The two methods below are kept only because the frozen benchmark harness
// (bench/) calls them by name; each is one call into Query, nothing else in
// the repository may use them, and they go with the harness's next revision.

// KNN is harness-kept: Query with Op core.OpKNN, Timed.
func (r *Router) KNN(ctx context.Context, q metric.Object, k int) ([]core.Result, core.QueryStats, error) {
	return r.Query(ctx, core.Query{Op: core.OpKNN, Q: q, K: k, Timed: true})
}

// Range is harness-kept: Query with Op core.OpRange, Timed.
func (r *Router) Range(ctx context.Context, q metric.Object, radius float64) ([]core.Result, core.QueryStats, error) {
	return r.Query(ctx, core.Query{Op: core.OpRange, Q: q, Radius: radius, Timed: true})
}

// Join computes the cluster self-join SJ(C, C, ε) through the same one
// scatter as Query: one kJoin RPC per owning node, each node joining its owned
// shards against every cluster shard with forest.Join (remote partners
// shipped via kExport). The router concatenates the pair lists and sorts them
// by (QID, OID). In the stats the nodes' counters add, and Elapsed is the
// router's clock around the gather. A node answering ErrNotOwner — its own
// shards or a partner's export moved in a handoff — is retried once after a
// placement refresh, with every shard's address taken from the new
// placement. Failed nodes cost exactly their Q-shards' pairs, reported as
// NodeErrors.
func (r *Router) Join(ctx context.Context, eps float64) ([]core.IDPair, core.QueryStats, error) {
	start := time.Now()
	resps, err := r.scatterQuery(ctx, core.OpJoin, r.placement.Load(), func(p *Placement, shards []int) (byte, interface{}) {
		refs := make([]shardRef, p.Shards)
		for s := range refs {
			refs[s] = shardRef{Shard: s, Addr: p.Nodes[p.Owners[s]]}
		}
		return kJoin, rpcJoinReq{QShards: shards, OShards: refs, Eps: eps, DeadlineUS: deadlineUS(ctx)}
	})
	var pairs []core.IDPair
	stats := core.QueryStats{Op: core.OpJoin}
	for _, resp := range resps {
		pairs = append(pairs, resp.Pairs...)
		stats.Merge(resp.Stats)
	}
	core.SortIDPairs(pairs)
	stats.Results = len(pairs)
	stats.Elapsed = time.Since(start)
	return pairs, stats, err
}

// mutate routes one insert/delete to the owning node. Inserts are
// upsert-idempotent, so they ride the transient-retry loop; deletes are
// not retried (a retried delete that raced a re-insert would erase the
// newer write), surfacing transport failures to the caller instead.
func (r *Router) mutate(ctx context.Context, obj metric.Object, del bool) error {
	p := r.placement.Load()
	shard := forest.PartitionOf(obj.ID(), p.Shards)
	req := rpcMutateReq{Shard: shard,
		Obj: wireObj{ID: obj.ID(), Data: obj.AppendBinary(nil)}, Delete: del}
	op := "insert"
	if del {
		op = "delete"
	}
	try := func(p *Placement) error {
		owner := p.Owners[shard]
		var resp rpcMutateResp
		err := r.callNode(ctx, owner, p.Nodes[owner], op, !del, kMutate, req, &resp)
		if err == nil {
			err = fromWireErr(resp.Err)
		}
		if err != nil {
			return &NodeError{Node: owner, Addr: p.Nodes[owner], Err: err}
		}
		return nil
	}
	err := try(p)
	if err != nil && errors.Is(err, ErrNotOwner) && r.Refresh != nil {
		if np, rerr := r.Refresh(ctx); rerr == nil && np != nil {
			r.SetPlacement(np)
			return try(np)
		}
	}
	return err
}

// Insert upserts obj into its hash-partitioned shard on the owning node.
func (r *Router) Insert(ctx context.Context, obj metric.Object) error {
	return r.mutate(ctx, obj, false)
}

// Delete removes obj from its shard on the owning node. A missing object
// answers an error matching core.ErrNotFound.
func (r *Router) Delete(ctx context.Context, obj metric.Object) error {
	return r.mutate(ctx, obj, true)
}

// ClusterStats is the fleet-wide stats snapshot: per-node snapshots for the
// reachable nodes, NodeErrors for the rest.
type ClusterStats struct {
	Placement *Placement
	Nodes     []NodeStats
	// Errors holds the per-node failures as strings (the snapshot is
	// JSON-encodable for /v1/stats).
	Errors []string
}

// Objects totals the live objects across reporting nodes.
func (s ClusterStats) Objects() int {
	total := 0
	for _, n := range s.Nodes {
		total += n.Objects()
	}
	return total
}

// Stats snapshots every node, tolerating failures the usual way.
func (r *Router) Stats(ctx context.Context) ClusterStats {
	p := r.placement.Load()
	names := make([]string, 0, len(p.Nodes))
	for n := range p.Nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ClusterStats{Placement: p}
	resps := make([]rpcStatsResp, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			err := r.callNode(ctx, name, p.Nodes[name], "stats", true, kStats, rpcStatsReq{}, &resps[i])
			if err == nil {
				err = fromWireErr(resps[i].Err)
			}
			if err != nil {
				errs[i] = &NodeError{Node: name, Addr: p.Nodes[name], Err: err}
			}
		}(i, name)
	}
	wg.Wait()
	for i := range names {
		if errs[i] != nil {
			out.Errors = append(out.Errors, errs[i].Error())
			continue
		}
		out.Nodes = append(out.Nodes, resps[i].Stats)
	}
	return out
}
