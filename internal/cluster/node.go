package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spbtree/internal/core"
	"spbtree/internal/forest"
	"spbtree/internal/metric"
	"spbtree/internal/obs"
	"spbtree/internal/retry"
	"spbtree/internal/sfc"
)

// NodeConfig configures OpenNode.
type NodeConfig struct {
	// Name is the node's placement name; required.
	Name string
	// Dir is the node's data directory, holding one shard-NNN subdirectory
	// per owned shard (as laid out by Bootstrap); required.
	Dir string
	// Load configures how shard trees are opened (Distance and Codec
	// required).
	Load core.LoadOptions
	// Durable configures the shard trees' write path.
	Durable core.DurableOptions
	// Parallel bounds concurrent shard scans within one multi-shard request;
	// 0 means all owned shards at once.
	Parallel int
}

// shardState is one owned shard: its durable tree plus the handoff state.
type shardState struct {
	tree *core.Tree
	// frozen rejects mutations (ErrShardFrozen) while a handoff copies the
	// shard's files. Queries and exports keep running.
	frozen atomic.Bool
	// release undoes the compaction hold taken when the shard froze. It MUST
	// be called before the tree is closed (Close joins the compactor
	// goroutine, which may be parked on the held lock).
	release func()
}

// Node owns a subset of the cluster's shards and serves them over the wire
// protocol. One process runs one Node; queries arriving for several owned
// shards execute through the same forest scatter-gather a single-process
// deployment uses, so a node's merged answer is byte-identical to the same
// shards queried locally — the property the router's second-level merge
// builds on.
type Node struct {
	cfg NodeConfig

	mu     sync.RWMutex // guards shards and installs
	shards map[int]*shardState

	// installDirs tracks in-progress handoff staging directories by shard.
	installDirs map[int]string

	ln       net.Listener
	lnMu     sync.Mutex
	closed   atomic.Bool
	conns    sync.WaitGroup
	connsMu  sync.Mutex
	connSet  map[net.Conn]struct{}
	peers    map[string]*Client // export connections to other nodes, by addr
	peersMu  sync.Mutex
	handlers sync.WaitGroup

	// reg aggregates per-RPC-kind latency and work counters, published on
	// /debug/vars as "spbcluster_node_<name>" by Serve.
	reg obs.Registry

	// OnRequest, when non-nil, runs before every RPC is handled (test hook:
	// crash injection, latency injection, request counting). Set it before
	// Serve.
	OnRequest func(kind byte)
}

// OpenNode opens every shard-NNN directory under cfg.Dir as a durable tree.
// The node is ready to Serve afterwards.
func OpenNode(cfg NodeConfig) (*Node, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("cluster: node needs a name")
	}
	// A node that owns no shards yet (it joined to receive handoffs) has no
	// directory until now; create it so rebalancing onto it just works.
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: node %s: %w", cfg.Name, err)
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %s: %w", cfg.Name, err)
	}
	n := &Node{cfg: cfg, shards: make(map[int]*shardState),
		installDirs: make(map[int]string),
		connSet:     make(map[net.Conn]struct{}),
		peers:       make(map[string]*Client)}
	for _, e := range entries {
		var shard int
		if !e.IsDir() {
			continue
		}
		if _, err := fmt.Sscanf(e.Name(), "shard-%d", &shard); err != nil {
			continue
		}
		if filepath.Ext(e.Name()) == ".install" {
			// A crash mid-handoff left a staging directory; the shard never
			// activated here, so the copy is garbage — remove it.
			os.RemoveAll(filepath.Join(cfg.Dir, e.Name()))
			continue
		}
		t, err := core.OpenDurable(filepath.Join(cfg.Dir, e.Name()), cfg.Load, cfg.Durable)
		if err != nil {
			n.closeShards()
			return nil, fmt.Errorf("cluster: node %s: open shard %d: %w", cfg.Name, shard, err)
		}
		n.shards[shard] = &shardState{tree: t}
	}
	return n, nil
}

// shardDir is the on-disk home of one shard.
func (n *Node) shardDir(shard int) string {
	return filepath.Join(n.cfg.Dir, fmt.Sprintf("shard-%03d", shard))
}

// Shards lists the shard indices this node currently owns, ascending.
func (n *Node) Shards() []int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]int, 0, len(n.shards))
	for s := range n.shards {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Serve accepts connections on ln until Close. It always returns a non-nil
// error (net.ErrClosed after a clean Close).
func (n *Node) Serve(ln net.Listener) error {
	n.lnMu.Lock()
	n.ln = ln
	n.lnMu.Unlock()
	n.reg.Publish("spbcluster_node_" + n.cfg.Name)
	for {
		conn, err := ln.Accept()
		if err != nil {
			if n.closed.Load() {
				return net.ErrClosed
			}
			return err
		}
		n.connsMu.Lock()
		n.connSet[conn] = struct{}{}
		n.connsMu.Unlock()
		n.conns.Add(1)
		go n.serveConn(conn)
	}
}

// Close stops serving and closes every shard. In-flight handlers finish
// writing (their connections close under them, which is fine — the client
// side treats it as a transport failure).
func (n *Node) Close() error {
	if !n.closed.CompareAndSwap(false, true) {
		return nil
	}
	n.lnMu.Lock()
	if n.ln != nil {
		n.ln.Close()
	}
	n.lnMu.Unlock()
	n.connsMu.Lock()
	for c := range n.connSet {
		c.Close()
	}
	n.connsMu.Unlock()
	n.conns.Wait()
	n.peersMu.Lock()
	for _, c := range n.peers {
		c.Close()
	}
	n.peersMu.Unlock()
	n.closeShards()
	return nil
}

// closeShards releases compaction holds (before Close — see shardState) and
// closes every tree.
func (n *Node) closeShards() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, st := range n.shards {
		if st.release != nil {
			st.release()
			st.release = nil
		}
		st.tree.Close()
	}
	n.shards = make(map[int]*shardState)
}

// serveConn handles one client connection: frames are read sequentially and
// handled concurrently (the client multiplexes), responses serialized by a
// per-connection write mutex.
func (n *Node) serveConn(conn net.Conn) {
	defer n.conns.Done()
	defer func() {
		n.connsMu.Lock()
		delete(n.connSet, conn)
		n.connsMu.Unlock()
		conn.Close()
	}()
	var writeMu sync.Mutex
	for {
		reqID, kind, payload, err := readFrame(conn)
		if err != nil {
			return
		}
		n.handlers.Add(1)
		go func(reqID uint64, kind byte, payload []byte) {
			defer n.handlers.Done()
			if hook := n.OnRequest; hook != nil {
				hook(kind)
			}
			start := time.Now()
			resp, failed := n.dispatch(kind, payload)
			n.reg.Op(kindName(kind)).Observe(0, 0, 0, 0, time.Since(start), failed)
			writeMu.Lock()
			writeFrame(conn, reqID, kind, resp)
			writeMu.Unlock()
		}(reqID, kind, payload)
	}
}

// kindName labels RPC kinds for the node's metrics registry.
func kindName(kind byte) string {
	switch kind {
	case kRange:
		return "rpc.range"
	case kKNN:
		return "rpc.knn"
	case kJoin:
		return "rpc.join"
	case kMutate:
		return "rpc.mutate"
	case kStats:
		return "rpc.stats"
	case kExport:
		return "rpc.export"
	case kPing:
		return "rpc.ping"
	default:
		return "rpc.admin"
	}
}

// errOnly is the kErr payload shape: gob matches fields by name, so any
// response struct with an Err field decodes it.
type errOnly struct {
	Err *wireErr
}

// dispatch decodes and executes one request, returning the response payload
// and whether the operation failed (for metrics).
func (n *Node) dispatch(kind byte, payload []byte) (resp interface{}, failed bool) {
	var err error
	switch kind {
	case kRange:
		var req rpcRangeReq
		if err = decodePayload(payload, &req); err == nil {
			return n.handleRange(req)
		}
	case kKNN:
		var req rpcKNNReq
		if err = decodePayload(payload, &req); err == nil {
			return n.handleKNN(req)
		}
	case kJoin:
		var req rpcJoinReq
		if err = decodePayload(payload, &req); err == nil {
			return n.handleJoin(req)
		}
	case kMutate:
		var req rpcMutateReq
		if err = decodePayload(payload, &req); err == nil {
			return n.handleMutate(req)
		}
	case kStats:
		return n.handleStats()
	case kExport:
		var req rpcExportReq
		if err = decodePayload(payload, &req); err == nil {
			return n.handleExport(req)
		}
	case kFreeze:
		var req rpcFreezeReq
		if err = decodePayload(payload, &req); err == nil {
			return n.handleFreeze(req)
		}
	case kListFiles:
		var req rpcListFilesReq
		if err = decodePayload(payload, &req); err == nil {
			return n.handleListFiles(req)
		}
	case kReadFile:
		var req rpcReadFileReq
		if err = decodePayload(payload, &req); err == nil {
			return n.handleReadFile(req)
		}
	case kBeginInstall, kInstallChunk, kFinishInstall, kActivate, kDrop:
		var req rpcInstallReq
		if err = decodePayload(payload, &req); err == nil {
			return n.handleInstall(kind, req)
		}
	case kPing:
		return rpcPingResp{Name: n.cfg.Name}, false
	default:
		err = fmt.Errorf("cluster: unknown frame kind %d", kind)
	}
	return errOnly{Err: toWireErr(err)}, true
}

// reqContext arms the request's remaining deadline budget as a local
// context deadline.
func reqContext(deadlineUS int64) (context.Context, context.CancelFunc) {
	if deadlineUS <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), time.Duration(deadlineUS)*time.Microsecond)
}

// ownedTrees resolves the shard ids a request names to the node's trees, in
// request order. The trees stay owned by the node.
func (n *Node) ownedTrees(ids []int) ([]*core.Tree, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if len(ids) == 0 {
		return nil, fmt.Errorf("cluster: request names no shards")
	}
	trees := make([]*core.Tree, 0, len(ids))
	for _, id := range ids {
		st, ok := n.shards[id]
		if !ok {
			return nil, fmt.Errorf("%w: %s does not own shard %d", ErrNotOwner, n.cfg.Name, id)
		}
		trees = append(trees, st.tree)
	}
	return trees, nil
}

// staleClosed maps a query failure on a just-dropped shard to ErrNotOwner.
// A request dispatched against the old placement can race the handoff's
// final drop and find the tree closed mid-scan; the placement has already
// flipped by then, so the correct signal to the router is "refresh and
// retry", not a hard failure.
func (n *Node) staleClosed(err error, ids []int) error {
	if err == nil || !errors.Is(err, core.ErrClosed) {
		return err
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	for _, id := range ids {
		if _, ok := n.shards[id]; !ok {
			return fmt.Errorf("%w: shard %d dropped mid-request (%v)", ErrNotOwner, id, err)
		}
	}
	return err
}

// decodeQuery reconstitutes a transported query object.
func (n *Node) decodeQuery(o wireObj) (metric.Object, error) {
	return n.cfg.Load.Codec.Decode(o.ID, o.Data)
}

// toWireResults serializes query answers for transport.
func toWireResults(results []core.Result) []wireResult {
	out := make([]wireResult, len(results))
	for i, r := range results {
		out[i] = wireResult{ID: r.Object.ID(), Data: r.Object.AppendBinary(nil),
			Dist: r.Dist, Exact: r.Exact}
	}
	return out
}

// handleRange answers a range RPC as a core.Query.
func (n *Node) handleRange(req rpcRangeReq) (interface{}, bool) {
	return n.runQuery(req.Shards, req.Q, req.DeadlineUS,
		core.Query{Op: core.OpRange, Radius: req.R, Timed: req.WithStats})
}

// handleKNN answers an exact, bounded or budgeted-approximate kNN RPC as a
// core.Query. Flag combinations the wire can spell but the library rejects
// (Bounded with Approx) fail core.Query.Validate inside runQuery.
func (n *Node) handleKNN(req rpcKNNReq) (interface{}, bool) {
	q := core.Query{Op: core.OpKNN, K: req.K, MaxVerify: req.MaxVerify,
		Bounded: req.Bounded, Bound: req.Bound, Timed: req.WithStats}
	if req.Approx {
		q.Op = core.OpKNNApprox
	}
	return n.runQuery(req.Shards, req.Q, req.DeadlineUS, q)
}

// runQuery executes one query RPC: q arrives from outside the process, so it
// is validated (forest.Query does, before any shard work) and then answered
// by a per-request forest over the named owned shards — the same gather body
// a single-process forest runs, and the only place a cluster query's visit
// list is pruned or its kNN staged (DESIGN.md §15.4). Partial results travel
// alongside the error, preserving the library contract.
func (n *Node) runQuery(shards []int, wq wireObj, deadlineUS int64, q core.Query) (interface{}, bool) {
	trees, err := n.ownedTrees(shards)
	if err != nil {
		return rpcQueryResp{Err: toWireErr(err)}, true
	}
	if q.Q, err = n.decodeQuery(wq); err != nil {
		return rpcQueryResp{Err: toWireErr(err)}, true
	}
	f, err := forest.FromShards(trees, n.cfg.Parallel)
	if err != nil {
		return rpcQueryResp{Err: toWireErr(err)}, true
	}
	ctx, cancel := reqContext(deadlineUS)
	defer cancel()
	results, qs, err := f.Query(ctx, q)
	err = n.staleClosed(err, shards)
	return rpcQueryResp{Results: toWireResults(results), Stats: qs, Err: toWireErr(err)}, err != nil
}

// handleMutate applies one insert or delete to an owned shard.
func (n *Node) handleMutate(req rpcMutateReq) (interface{}, bool) {
	n.mu.RLock()
	st, ok := n.shards[req.Shard]
	n.mu.RUnlock()
	if !ok {
		err := fmt.Errorf("%w: %s does not own shard %d", ErrNotOwner, n.cfg.Name, req.Shard)
		return rpcMutateResp{Err: toWireErr(err)}, true
	}
	if st.frozen.Load() {
		err := fmt.Errorf("%w: shard %d on %s", ErrShardFrozen, req.Shard, n.cfg.Name)
		return rpcMutateResp{Err: toWireErr(err)}, true
	}
	obj, err := n.cfg.Load.Codec.Decode(req.Obj.ID, req.Obj.Data)
	if err != nil {
		return rpcMutateResp{Err: toWireErr(err)}, true
	}
	if req.Delete {
		err = st.tree.Delete(obj)
	} else {
		err = st.tree.Insert(obj)
	}
	return rpcMutateResp{Objects: st.tree.Len(), Err: toWireErr(err)}, err != nil
}

// ShardStats describes one owned shard in a stats snapshot.
type ShardStats struct {
	ID           int
	Objects      int
	Delta        int
	StorageBytes int64
	Frozen       bool
}

// NodeStats is one node's remote-safe stats snapshot: plain values only, so
// it gob-encodes and JSON-encodes without reaching back into the node.
type NodeStats struct {
	Name   string
	Shards []ShardStats
}

// Objects totals the node's live objects.
func (s NodeStats) Objects() int {
	total := 0
	for _, sh := range s.Shards {
		total += sh.Objects
	}
	return total
}

// handleStats snapshots the node.
func (n *Node) handleStats() (interface{}, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	stats := NodeStats{Name: n.cfg.Name}
	ids := make([]int, 0, len(n.shards))
	for id := range n.shards {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		st := n.shards[id]
		stats.Shards = append(stats.Shards, ShardStats{
			ID: id, Objects: st.tree.Len(), Delta: st.tree.DeltaLen(),
			StorageBytes: st.tree.StorageBytes(), Frozen: st.frozen.Load()})
	}
	return rpcStatsResp{Stats: stats}, false
}

// handleExport snapshots an owned shard's live objects for a remote join
// partner (or any data-shipping caller).
func (n *Node) handleExport(req rpcExportReq) (interface{}, bool) {
	n.mu.RLock()
	st, ok := n.shards[req.Shard]
	n.mu.RUnlock()
	if !ok {
		err := fmt.Errorf("%w: %s does not own shard %d", ErrNotOwner, n.cfg.Name, req.Shard)
		return rpcExportResp{Err: toWireErr(err)}, true
	}
	objs, err := st.tree.ExportObjects()
	if err != nil {
		return rpcExportResp{Err: toWireErr(err)}, true
	}
	out := make([]wireObj, len(objs))
	for i, o := range objs {
		out[i] = wireObj{ID: o.ID(), Data: o.AppendBinary(nil)}
	}
	return rpcExportResp{Objs: out}, false
}

// handleJoin computes this node's slice of the cluster self-join: its owned
// QShards against every cluster shard. Local partners join directly; remote
// partners are fetched once via kExport and rebuilt into the shared mapped
// space (ShareMapping guarantees identical pruning geometry, so the pairs
// match a single-process join exactly).
func (n *Node) handleJoin(req rpcJoinReq) (interface{}, bool) {
	qTrees, err := n.ownedTrees(req.QShards)
	if err != nil {
		return rpcJoinResp{Err: toWireErr(err)}, true
	}
	if qTrees[0].CurveKind() != sfc.ZOrder {
		err := fmt.Errorf("cluster: similarity joins need a Z-order cluster (this one uses %v)", qTrees[0].CurveKind())
		return rpcJoinResp{Err: toWireErr(err)}, true
	}
	ctx, cancel := reqContext(req.DeadlineUS)
	defer cancel()

	// Resolve every O-shard to a tree: owned ones directly, remote ones via
	// a one-shot export + rebuild, cached for the request (a shard pairs
	// with every local Q-shard, but ships only once).
	partners := make(map[int]*core.Tree, len(req.OShards))
	var fetched []*core.Tree
	defer func() {
		for _, t := range fetched {
			t.Close()
		}
	}()
	var pairs []core.IDPair
	var firstErr error
	for _, ref := range req.OShards {
		oTree, oerr := n.joinPartner(ctx, ref, qTrees[0], partners, &fetched)
		if oerr != nil {
			firstErr = oerr
			break
		}
		for _, qTree := range qTrees {
			jp, jerr := core.JoinCtx(ctx, qTree, oTree, req.Eps)
			pairs = append(pairs, core.IDPairs(jp)...)
			if jerr != nil {
				firstErr = jerr
				break
			}
		}
		if firstErr != nil {
			break
		}
	}
	core.SortIDPairs(pairs)
	return rpcJoinResp{Pairs: pairs, Err: toWireErr(firstErr)}, firstErr != nil
}

// joinPartner resolves one O-shard reference to a queryable tree.
func (n *Node) joinPartner(ctx context.Context, ref shardRef, share *core.Tree,
	cache map[int]*core.Tree, fetched *[]*core.Tree) (*core.Tree, error) {
	if t, ok := cache[ref.Shard]; ok {
		return t, nil
	}
	n.mu.RLock()
	st, owned := n.shards[ref.Shard]
	n.mu.RUnlock()
	if owned {
		cache[ref.Shard] = st.tree
		return st.tree, nil
	}
	if ref.Addr == "" {
		return nil, fmt.Errorf("cluster: join: no address for remote shard %d", ref.Shard)
	}
	objs, err := n.fetchExport(ctx, ref)
	if err != nil {
		return nil, err
	}
	t, err := core.Build(objs, core.Options{
		Distance: n.cfg.Load.Distance, Codec: n.cfg.Load.Codec,
		Curve: sfc.ZOrder, ShareMapping: share,
		CacheSize: n.cfg.Load.CacheSize,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: join: rebuild shard %d: %w", ref.Shard, err)
	}
	cache[ref.Shard] = t
	*fetched = append(*fetched, t)
	return t, nil
}

// peer returns (dialing lazily) the node's export client for addr.
func (n *Node) peer(addr string) *Client {
	n.peersMu.Lock()
	defer n.peersMu.Unlock()
	c, ok := n.peers[addr]
	if !ok {
		c = NewClient(addr)
		n.peers[addr] = c
	}
	return c
}

// fetchExport ships a remote shard's objects here, retrying transient
// connection failures (an export is a read-only snapshot — safely
// idempotent).
func (n *Node) fetchExport(ctx context.Context, ref shardRef) ([]metric.Object, error) {
	c := n.peer(ref.Addr)
	var resp rpcExportResp
	err := retry.Do(ctx, transientRPC, func() error {
		resp = rpcExportResp{}
		return c.Call(ctx, kExport, rpcExportReq{Shard: ref.Shard, DeadlineUS: deadlineUS(ctx)}, &resp)
	})
	if err == nil {
		err = fromWireErr(resp.Err)
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: export shard %d from %s: %w", ref.Shard, ref.Addr, err)
	}
	objs := make([]metric.Object, len(resp.Objs))
	for i, o := range resp.Objs {
		obj, derr := n.cfg.Load.Codec.Decode(o.ID, o.Data)
		if derr != nil {
			return nil, derr
		}
		objs[i] = obj
	}
	return objs, nil
}

// handleFreeze toggles a shard's quiesced state. Freezing also holds
// background compaction so the shard's file set stops changing — the
// precondition for handoff's copy phase.
func (n *Node) handleFreeze(req rpcFreezeReq) (interface{}, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	st, ok := n.shards[req.Shard]
	if !ok {
		err := fmt.Errorf("%w: %s does not own shard %d", ErrNotOwner, n.cfg.Name, req.Shard)
		return rpcFreezeResp{Err: toWireErr(err)}, true
	}
	if req.On && !st.frozen.Load() {
		release, err := st.tree.HoldCompaction()
		if err != nil {
			return rpcFreezeResp{Err: toWireErr(err)}, true
		}
		st.release = release
		st.frozen.Store(true)
	} else if !req.On && st.frozen.Load() {
		if st.release != nil {
			st.release()
			st.release = nil
		}
		st.frozen.Store(false)
	}
	return rpcFreezeResp{}, false
}

// handleListFiles manifests a frozen shard's directory for the handoff
// coordinator.
func (n *Node) handleListFiles(req rpcListFilesReq) (interface{}, bool) {
	n.mu.RLock()
	st, ok := n.shards[req.Shard]
	n.mu.RUnlock()
	if !ok {
		err := fmt.Errorf("%w: %s does not own shard %d", ErrNotOwner, n.cfg.Name, req.Shard)
		return rpcListFilesResp{Err: toWireErr(err)}, true
	}
	if !st.frozen.Load() {
		err := fmt.Errorf("cluster: shard %d must be frozen before its files are copied", req.Shard)
		return rpcListFilesResp{Err: toWireErr(err)}, true
	}
	root := n.shardDir(req.Shard)
	var resp rpcListFilesResp
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			return rerr
		}
		resp.Paths = append(resp.Paths, filepath.ToSlash(rel))
		resp.Sizes = append(resp.Sizes, info.Size())
		return nil
	})
	if err != nil {
		return rpcListFilesResp{Err: toWireErr(err)}, true
	}
	return resp, false
}

// handleReadFile serves one chunk of a shard file to the handoff
// coordinator.
func (n *Node) handleReadFile(req rpcReadFileReq) (interface{}, bool) {
	if !filepath.IsLocal(req.Path) {
		err := fmt.Errorf("cluster: non-local file path %q", req.Path)
		return rpcReadFileResp{Err: toWireErr(err)}, true
	}
	f, err := os.Open(filepath.Join(n.shardDir(req.Shard), filepath.FromSlash(req.Path)))
	if err != nil {
		return rpcReadFileResp{Err: toWireErr(err)}, true
	}
	defer f.Close()
	buf := make([]byte, req.Len)
	got, err := f.ReadAt(buf, req.Off)
	if err != nil && !errors.Is(err, io.EOF) {
		return rpcReadFileResp{Err: toWireErr(err)}, true
	}
	return rpcReadFileResp{Data: buf[:got], EOF: errors.Is(err, io.EOF)}, false
}

// handleInstall runs the receiving half of the handoff state machine.
func (n *Node) handleInstall(kind byte, req rpcInstallReq) (interface{}, bool) {
	var err error
	switch kind {
	case kBeginInstall:
		err = n.beginInstall(req.Shard)
	case kInstallChunk:
		err = n.installChunk(req)
	case kFinishInstall:
		err = n.finishInstall(req.Shard)
	case kActivate:
		err = n.activate(req.Shard)
	case kDrop:
		err = n.drop(req.Shard)
	}
	return rpcInstallResp{Err: toWireErr(err)}, err != nil
}

// beginInstall creates a fresh staging directory for an incoming shard.
func (n *Node) beginInstall(shard int) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, owned := n.shards[shard]; owned {
		return fmt.Errorf("cluster: %s already owns shard %d", n.cfg.Name, shard)
	}
	staging := n.shardDir(shard) + ".install"
	if err := os.RemoveAll(staging); err != nil {
		return err
	}
	if err := os.MkdirAll(staging, 0o755); err != nil {
		return err
	}
	n.installDirs[shard] = staging
	return nil
}

// installChunk appends one chunk to a staged file (creating it when First).
func (n *Node) installChunk(req rpcInstallReq) error {
	n.mu.RLock()
	staging, ok := n.installDirs[req.Shard]
	n.mu.RUnlock()
	if !ok {
		return fmt.Errorf("cluster: no install in progress for shard %d", req.Shard)
	}
	if !filepath.IsLocal(req.Path) {
		return fmt.Errorf("cluster: non-local file path %q", req.Path)
	}
	path := filepath.Join(staging, filepath.FromSlash(req.Path))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	flags := os.O_WRONLY | os.O_CREATE | os.O_APPEND
	if req.First {
		flags = os.O_WRONLY | os.O_CREATE | os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	return retry.Write(f, req.Data)
}

// finishInstall fsyncs the staged tree so activation survives a crash.
func (n *Node) finishInstall(shard int) error {
	n.mu.RLock()
	staging, ok := n.installDirs[shard]
	n.mu.RUnlock()
	if !ok {
		return fmt.Errorf("cluster: no install in progress for shard %d", shard)
	}
	return filepath.Walk(staging, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		f, oerr := os.Open(path)
		if oerr != nil {
			return oerr
		}
		defer f.Close()
		return retry.Sync(f.Sync)
	})
}

// activate renames the staged shard into place and opens it; from this
// frame's acknowledgement on, the node serves the shard.
func (n *Node) activate(shard int) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	staging, ok := n.installDirs[shard]
	if !ok {
		return fmt.Errorf("cluster: no install in progress for shard %d", shard)
	}
	final := n.shardDir(shard)
	if err := os.Rename(staging, final); err != nil {
		return err
	}
	delete(n.installDirs, shard)
	t, err := core.OpenDurable(final, n.cfg.Load, n.cfg.Durable)
	if err != nil {
		return fmt.Errorf("cluster: activate shard %d: %w", shard, err)
	}
	n.shards[shard] = &shardState{tree: t}
	return nil
}

// drop releases a shard this node no longer owns: the compaction hold is
// released BEFORE Close (Close joins the compactor, which may be parked on
// the held lock), then the files go.
func (n *Node) drop(shard int) error {
	n.mu.Lock()
	st, ok := n.shards[shard]
	delete(n.shards, shard)
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s does not own shard %d", ErrNotOwner, n.cfg.Name, shard)
	}
	if st.release != nil {
		st.release()
		st.release = nil
	}
	if err := st.tree.Close(); err != nil {
		return err
	}
	return os.RemoveAll(n.shardDir(shard))
}
