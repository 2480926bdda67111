package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"spbtree/internal/cluster"
	"spbtree/internal/core"
	"spbtree/internal/forest"
	"spbtree/internal/metric"
	"spbtree/internal/server"
)

// errBusy is a 429: admission control turned the request away.
var errBusy = errors.New("429 too many requests")

// clusterWorkload serves the index the way spbserve -cluster does — nodes
// owning durable shards on loopback TCP, a router scattering to them, the
// HTTP server in front — all in this process, and talks to it over real
// loopback HTTP. It keeps its own record of every acked write.
type clusterWorkload struct {
	sp      spec
	in      inputs
	seed    int64
	root    string
	clients int
	// openStep is how long each open-loop step lasts on a traced run.
	openStep time.Duration

	placement *cluster.Placement
	nodes     []*cluster.Node
	serving   sync.WaitGroup
	router    *cluster.Router
	srv       *server.Server
	hs        *http.Server
	base      string
	// closed has C keep-alive connections, one per closed-loop client; open
	// has enough for every request the open-loop generator may have in flight.
	closed, open *http.Client
	rpcs         atomic.Int64
	rejected     atomic.Int64

	// The harness's own record, under mu: the objects live by acked writes,
	// and for every ID written its last acked state.
	mu       sync.Mutex
	liveObjs []metric.Object
	pos      map[uint64]int
	touched  map[uint64]touch
	// nextRead, nextFresh and nextToggle number the ops handed out so far.
	nextRead, nextFresh, nextToggle int
	// routerRPCs holds the node RPCs each router-rung call of the ladder
	// caused; refTree is the single tree the ladder's tree rung queries.
	routerRPCs []float64
	refTree    *core.Tree
}

// touch is the last acked write to one ID.
type touch struct {
	obj     metric.Object
	present bool
}

func newClusterWorkload(sp spec, in inputs, seed int64, dir string, clients int, openStep time.Duration) *clusterWorkload {
	return &clusterWorkload{sp: sp, in: in, seed: seed, root: filepath.Join(dir, "cluster"),
		clients: clients, openStep: openStep}
}

func (w *clusterWorkload) treeOptions() core.Options {
	return core.Options{Distance: w.in.ds.Distance, Codec: w.in.ds.Codec, Seed: w.seed}
}

func (w *clusterWorkload) durableOptions() core.DurableOptions {
	return core.DurableOptions{CompactThreshold: compactThreshold}
}

func (w *clusterWorkload) setup() error {
	cfg := &cluster.Config{Type: "words", MaxLen: 34, Shards: clusterShards, Curve: "hilbert"}
	for _, name := range clusterNodes {
		cfg.Nodes = append(cfg.Nodes, cluster.NodeDef{Name: name, Addr: "pending"})
	}
	p, err := cluster.Bootstrap(cfg, w.in.indexed, cluster.BootstrapOptions{
		Dir: w.root, Tree: w.treeOptions(), Durable: w.durableOptions()})
	if err != nil {
		return err
	}
	w.placement = p

	w.liveObjs = append([]metric.Object(nil), w.in.indexed...)
	w.pos = make(map[uint64]int, len(w.liveObjs))
	for i, o := range w.liveObjs {
		w.pos[o.ID()] = i
	}
	w.touched = map[uint64]touch{}
	w.nextRead, w.nextFresh, w.nextToggle = 0, 0, 0
	return w.start()
}

// start opens the nodes over the files under root and mounts the router and
// the HTTP server in front of them.
func (w *clusterWorkload) start() error {
	for _, name := range clusterNodes {
		node, err := cluster.OpenNode(cluster.NodeConfig{
			Name: name, Dir: cluster.NodeDir(w.root, name),
			Load:    core.LoadOptions{Distance: w.in.ds.Distance, Codec: w.in.ds.Codec},
			Durable: w.durableOptions(),
		})
		if err != nil {
			return err
		}
		node.OnRequest = func(byte) { w.rpcs.Add(1) }
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		w.placement.Nodes[name] = ln.Addr().String()
		w.nodes = append(w.nodes, node)
		w.serving.Add(1)
		go func() {
			defer w.serving.Done()
			node.Serve(ln) // returns once Close has shut the listener
		}()
	}
	router, err := cluster.NewRouter(w.placement, w.in.ds.Codec)
	if err != nil {
		return err
	}
	w.router = router
	parse := func(id uint64, line string) (metric.Object, error) { return metric.NewStr(id, line), nil }
	w.srv, err = server.New(server.Config{
		Backend:    &cluster.ServerBackend{R: router, Curve: "hilbert"},
		ParseQuery: server.TextParser(parse), ParseObject: server.TextObjects(parse),
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.serving.Add(1)
	go func() {
		defer w.serving.Done()
		w.hs.Serve(ln) // returns once Shutdown has closed the listener
	}()
	w.closed = &http.Client{Transport: &http.Transport{MaxConnsPerHost: w.clients, MaxIdleConnsPerHost: w.clients}}
	w.open = &http.Client{Transport: &http.Transport{MaxConnsPerHost: maxInFlight, MaxIdleConnsPerHost: maxInFlight}}
	return nil
}

// stop shuts whatever start opened and waits for its goroutines; the files
// stay.
func (w *clusterWorkload) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var err error
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}
	if w.hs != nil {
		w.closed.CloseIdleConnections()
		w.open.CloseIdleConnections()
		keep(w.hs.Shutdown(ctx))
	}
	if w.srv != nil {
		keep(w.srv.Shutdown(ctx))
	}
	if w.router != nil {
		keep(w.router.Close())
	}
	for _, n := range w.nodes {
		keep(n.Close())
	}
	w.serving.Wait()
	w.hs, w.srv, w.router, w.nodes = nil, nil, nil, nil
	return err
}

func (w *clusterWorkload) teardown() error {
	err := w.stop()
	if e := os.RemoveAll(w.root); err == nil {
		err = e
	}
	return err
}

func (w *clusterWorkload) passOps() []op {
	ops := make([]op, 0, w.sp.ops)
	for i := 0; i < w.sp.ops; i++ {
		if i%writeEvery != writeEvery-1 {
			ops = append(ops, op{kind: opKNN, obj: w.in.queries[w.nextRead%len(w.in.queries)]})
			w.nextRead++
			continue
		}
		// Writes alternate between inserting a fresh object and toggling one
		// of the first togglePool indexed objects.
		if (w.nextFresh+w.nextToggle)%2 == 0 {
			ops = append(ops, op{kind: opWrite, obj: w.in.fresh[w.nextFresh%len(w.in.fresh)]})
			w.nextFresh++
			continue
		}
		ops = append(ops, op{kind: opWrite, obj: w.in.indexed[w.nextToggle%togglePool], toggle: true})
		w.nextToggle++
	}
	return ops
}

func (w *clusterWorkload) knnQueries() []metric.Object { return w.in.queries }

// setSerial does nothing: a node's trees take their worker count when the
// node opens them, so the mixed workload's count pass runs with the default
// pool and its traversal counters are close to, not exactly, repeatable.
func (w *clusterWorkload) setSerial(bool) {}

func (w *clusterWorkload) live() []metric.Object {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.liveObjs
}

// isLive reports whether the record has the ID live.
func (w *clusterWorkload) isLive(id uint64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, have := w.pos[id]
	return have
}

// record notes an acked write of o: a delete if del, else an insert.
func (w *clusterWorkload) record(o metric.Object, del bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	id := o.ID()
	w.touched[id] = touch{obj: o, present: !del}
	i, have := w.pos[id]
	switch {
	case del && have:
		last := len(w.liveObjs) - 1
		w.liveObjs[i] = w.liveObjs[last]
		w.pos[w.liveObjs[i].ID()] = i
		w.liveObjs = w.liveObjs[:last]
		delete(w.pos, id)
	case !del && have:
		w.liveObjs[i] = o
	case !del:
		w.pos[id] = len(w.liveObjs)
		w.liveObjs = append(w.liveObjs, o)
	}
}

func (w *clusterWorkload) storageBytes() (int64, error) { return dirBytes(w.root) }

func (w *clusterWorkload) notes() []string {
	return []string{
		fmt.Sprintf("%d nodes, %d durable shards owned %v; WAL fsync on every group commit; CompactThreshold %d per shard; default 32-page caches",
			len(clusterNodes), clusterShards, w.placement.ByOwner(), compactThreshold),
		fmt.Sprintf("HTTP on loopback, %d keep-alive connections; server Workers and QueueDepth at their defaults", w.clients),
		fmt.Sprintf("open-loop rates %v req/s, %v per step, limit p95-from-due %d ms (traced runs only)", openRates, w.openStep, openLimitMS),
	}
}

// do sends reads and writes over HTTP as a client would. A read with stats
// asks the router directly instead: the answer is the same and QueryStats
// arrives whole, where the HTTP response keeps only its totals.
func (w *clusterWorkload) do(ctx context.Context, o op, stats bool) (answer, error) {
	if stats && o.kind == opKNN {
		res, qs, err := w.router.KNN(ctx, o.obj, k)
		return toAnswer(res, qs), err
	}
	return w.doHTTP(ctx, w.closed, o)
}

// wireRequest and wireResponse are the fields of the server's JSON the
// harness uses.
type wireRequest struct {
	ID    *uint64 `json:"id,omitempty"`
	Query string  `json:"query"`
	K     int     `json:"k,omitempty"`
}

type wireResponse struct {
	Results []struct {
		ID   uint64  `json:"id"`
		Dist float64 `json:"dist"`
	} `json:"results"`
	Partial   bool   `json:"partial"`
	OK        bool   `json:"ok"`
	Error     string `json:"error"`
	Compdists int64  `json:"compdists"`
	ElapsedUS int64  `json:"elapsed_us"`
}

// wireBody renders o as a request; del turns a write into a delete.
func wireBody(o op, del bool) (path string, body []byte) {
	req := wireRequest{Query: o.obj.(*metric.Str).S}
	switch {
	case o.kind == opKNN:
		path, req.K = "/v1/knn", k
	case del:
		path = "/v1/delete"
	default:
		path = "/v1/insert"
	}
	if o.kind == opWrite {
		id := o.obj.ID()
		req.ID = &id
	}
	body, _ = json.Marshal(req) // a struct of strings and ints cannot fail to encode
	return path, body
}

// readWire judges one HTTP response: anything but a complete 200 is an error.
func readWire(o op, status int, body io.Reader) (answer, error) {
	var resp wireResponse
	if err := json.NewDecoder(body).Decode(&resp); err != nil {
		return answer{}, fmt.Errorf("status %d: decode: %w", status, err)
	}
	switch {
	case status == http.StatusTooManyRequests:
		return answer{}, errBusy
	case status != http.StatusOK:
		return answer{}, fmt.Errorf("status %d: %s", status, resp.Error)
	case resp.Partial:
		return answer{}, fmt.Errorf("partial answer: %s", resp.Error)
	case o.kind == opWrite && !resp.OK:
		return answer{}, fmt.Errorf("write not acked: %s", resp.Error)
	}
	a := answer{ids: make([]uint64, len(resp.Results)), dists: make([]float64, len(resp.Results))}
	for i, r := range resp.Results {
		a.ids[i], a.dists[i] = r.ID, r.Dist
	}
	a.qs.Compdists = resp.Compdists
	a.qs.Elapsed = time.Duration(resp.ElapsedUS) * time.Microsecond
	return a, nil
}

func (w *clusterWorkload) doHTTP(ctx context.Context, c *http.Client, o op) (answer, error) {
	// A toggle's direction is decided now, from the acked record, so a failed
	// write cannot make the next toggle of its slot fail too. Each slot occurs
	// once per pass and passes do not overlap, so the decision cannot race.
	del := o.toggle && w.isLive(o.obj.ID())
	path, body := wireBody(o, del)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	a, err := readWire(o, resp.StatusCode, resp.Body)
	if errors.Is(err, errBusy) {
		w.rejected.Add(1)
	}
	if err == nil && o.kind == opWrite {
		w.record(o.obj, del)
	}
	return a, err
}

// ladder builds the references the inner rungs need — one tree and one
// in-process forest over the objects live now, with the shard options the
// cluster was bootstrapped with — and returns the seven boundaries from the
// kernel out to loopback HTTP.
func (w *clusterWorkload) ladder() ([]rung, func(), error) {
	objs := append([]metric.Object(nil), w.live()...)
	tree, err := core.Build(objs, w.treeOptions())
	if err != nil {
		return nil, nil, err
	}
	fst, err := forest.Build(objs, forest.Options{Tree: w.treeOptions(), Shards: clusterShards})
	if err != nil {
		tree.Close()
		return nil, nil, err
	}
	w.refTree = tree
	release := func() {
		tree.Close()
		for _, sh := range fst.Shards() {
			sh.Close()
		}
	}
	knn := func(ctx context.Context, q metric.Object) (core.QueryStats, error) {
		_, qs, err := tree.KNNWithStatsCtx(ctx, q, k)
		return qs, err
	}
	rungs := append(kernelRungs(w.in.ds.Distance, func() []metric.Object { return objs }), treeRungs(tree, knn)...)
	rungs = append(rungs,
		rung{name: "shards", call: func(ctx context.Context, q metric.Object, tr *tracer, req string, parent int) (core.QueryStats, error) {
			var sum core.QueryStats
			for i, sh := range fst.Shards() {
				id := tr.start(fmt.Sprintf("shard[%d]", i), req, parent)
				_, qs, err := sh.KNNWithStatsCtx(ctx, q, k)
				tr.end(id)
				if err != nil {
					return sum, err
				}
				sum.Merge(qs)
			}
			return sum, nil
		}},
		rung{name: "forest", call: func(ctx context.Context, q metric.Object, _ *tracer, _ string, _ int) (core.QueryStats, error) {
			_, qs, err := fst.KNNWithStatsCtx(ctx, q, k)
			return qs, err
		}},
		rung{name: "router", call: func(ctx context.Context, q metric.Object, _ *tracer, _ string, _ int) (core.QueryStats, error) {
			before := w.rpcs.Load()
			_, qs, err := w.router.KNN(ctx, q, k)
			w.routerRPCs = append(w.routerRPCs, float64(w.rpcs.Load()-before))
			return qs, err
		}},
		rung{name: "handler", call: func(ctx context.Context, q metric.Object, _ *tracer, _ string, _ int) (core.QueryStats, error) {
			o := op{kind: opKNN, obj: q}
			path, body := wireBody(o, false)
			rec := httptest.NewRecorder()
			w.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx))
			a, err := readWire(o, rec.Code, rec.Body)
			return a.qs, err
		}},
		rung{name: "http", call: func(ctx context.Context, q metric.Object, _ *tracer, _ string, _ int) (core.QueryStats, error) {
			a, err := w.doHTTP(ctx, w.closed, op{kind: opKNN, obj: q})
			return a.qs, err
		}},
	)
	return rungs, release, nil
}

// layers derives the forest, cluster, server, wal and open-loop metrics.
func (w *clusterWorkload) layers(ctx context.Context, tr *tracer, lad ladderResult, m metrics) error {
	shardsMS, forestMS := median(lad.ms["shards"]), median(lad.ms["forest"])
	routerMS, handlerMS, httpMS := median(lad.ms["router"]), median(lad.ms["handler"]), median(lad.ms["http"])
	// Each layer's own cost is its rung minus the rung below; with the
	// kernel and tree self times they add up to the HTTP rung.
	self := ladderSelf([]float64{median(lad.ms["tree"]), forestMS, routerMS, handlerMS, httpMS})

	fc := sumStats(lad.stats["forest"])
	m["forest.knn_ms"] = single("ms", forestMS)
	m["forest.overhead_ms"] = single("ms", self[1])
	m["forest.scatter_efficiency"] = single("ratio", ratio(shardsMS, forestMS*float64(min(clusterShards, w.clients))))
	m["forest.compdists_inflation"] = single("ratio", frac(fc.qs.Compdists, sumStats(lad.stats["tree"]).qs.Compdists))
	m["forest.shards_pruned_ratio"] = single("ratio", ratio(float64(fc.shardsPruned), float64(fc.shardsTotal)))
	m["forest.staged_ratio"] = single("ratio", ratio(float64(fc.staged), float64(fc.n)))

	m["cluster.knn_ms"] = single("ms", routerMS)
	m["cluster.overhead_ms"] = single("ms", self[2])
	m["cluster.rpcs_per_op"] = single("count", meanOf(w.routerRPCs))
	m["server.handler_ms"] = single("ms", handlerMS)
	m["server.overhead_ms"] = single("ms", self[3])
	m["server.http_knn_ms"] = single("ms", httpMS)
	m["server.http_overhead_ms"] = single("ms", self[4])

	if err := estimateErr(w.refTree, lad, m); err != nil {
		return err
	}
	if err := w.writeLadder(ctx, tr, m); err != nil {
		return err
	}
	w.openLoop(ctx, m)
	return nil
}

// writeLadder is the write path's ladder: the same fresh objects inserted
// into one durable shard tree directly (wal.tree_insert_ms) and into the
// cluster through the router (cluster.insert_ms). The shard tree then takes
// concurrent inserts for the group-commit ratios and one explicit compaction.
func (w *clusterWorkload) writeLadder(ctx context.Context, tr *tracer, m metrics) error {
	dir := filepath.Join(filepath.Dir(w.root), "walshard")
	part := forest.Partition(w.in.indexed, clusterShards)[0]
	dopts := core.DurableOptions{CompactThreshold: -1} // compaction only when asked, so WAL counts are the inserts'
	tree, err := core.CreateDurable(dir, part, w.treeOptions(), dopts)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer tree.Close()

	var objs []metric.Object
	for i := 0; i < ladderQueries; i++ {
		objs = append(objs, w.in.fresh[(w.nextFresh+i)%len(w.in.fresh)])
	}
	w.nextFresh += len(objs)
	lad, err := runLadder(ctx, tr, w.sp.name+"/write", objs, []rung{
		{name: "tree.insert", call: func(_ context.Context, o metric.Object, _ *tracer, _ string, _ int) (core.QueryStats, error) {
			return core.QueryStats{}, tree.Insert(o)
		}},
		{name: "router.insert", call: func(ctx context.Context, o metric.Object, _ *tracer, _ string, _ int) (core.QueryStats, error) {
			err := w.router.Insert(ctx, o)
			if err == nil {
				w.record(o, false)
			}
			return core.QueryStats{}, err
		}},
	})
	if err != nil {
		return err
	}
	m["wal.tree_insert_ms"] = single("ms", median(lad.ms["tree.insert"]))
	m["cluster.insert_ms"] = single("ms", median(lad.ms["router.insert"]))

	// Concurrent writers on the one shard: how many appends share a commit.
	const perWriter = 32
	before, _ := tree.WALStats()
	var payload atomic.Int64
	var werr error
	var once sync.Once
	parallelFor(w.clients*perWriter, w.clients, func(i int) {
		src := w.in.queries[i%len(w.in.queries)].(*metric.Str)
		o := metric.NewStr(uint64(len(w.in.indexed)+len(w.in.fresh)+i), src.S)
		payload.Add(int64(len(o.AppendBinary(nil))))
		if err := tree.Insert(o); err != nil {
			once.Do(func() { werr = err })
		}
	})
	if werr != nil {
		return werr
	}
	after, _ := tree.WALStats()
	appends := float64(after.Appends - before.Appends)
	m["wal.batch_ratio"] = single("ratio", ratio(appends, float64(after.Batches-before.Batches)))
	m["wal.syncs_per_append"] = single("ratio", ratio(float64(after.Syncs-before.Syncs), appends))
	for _, o := range objs {
		payload.Add(int64(len(o.AppendBinary(nil))))
	}
	walBytes, err := dirBytes(filepath.Join(dir, core.WALDir))
	if err != nil {
		return err
	}
	m["wal.bytes_per_user_byte"] = single("ratio", ratio(float64(walBytes), float64(payload.Load())))

	t0 := time.Now()
	if err := tree.CompactNow(); err != nil {
		return err
	}
	m["core.compact_now_s"] = single("s", time.Since(t0).Seconds())
	return nil
}

// openLoop runs the three fixed-rate steps. Requests arrive on schedule
// whether or not earlier ones have been answered, as independent users' do.
func (w *clusterWorkload) openLoop(ctx context.Context, m metrics) {
	do := func(ctx context.Context, o op) (answer, error) { return w.doHTTP(ctx, w.open, o) }
	var late []float64
	var sent, rejected float64
	maxOK := 0.0
	for i, rate := range openRates {
		var ops []op
		for float64(len(ops)) < rate*w.openStep.Seconds() {
			ops = append(ops, w.passOps()...)
		}
		before := w.rejected.Load()
		step := runOpen(ctx, rate, w.openStep, ops, do)
		sent += float64(step.sent)
		rejected += float64(w.rejected.Load() - before)
		late = append(late, step.lateMS...)
		p95 := percentile(step.fromDueMS, 95)
		if step.failed == 0 && step.backlog <= w.clients && p95 <= openLimitMS {
			maxOK = rate
		}
		if i == 1 {
			m["client.open_p50_ms"] = single("ms", percentile(step.fromDueMS, 50))
			m["client.open_p95_ms"] = single("ms", p95)
		}
	}
	m["client.max_rate_ok"] = single("1/s", maxOK)
	m["client.gen_late_p95_ms"] = single("ms", percentile(late, 95))
	m["server.rejected_429_ratio"] = single("ratio", ratio(rejected, sent))
}

// finish checks what the cluster holds against the harness's record of acked
// writes: first while it is still up and quiet, by sample queries over HTTP
// against a brute-force scan of the record; then after every node has been
// closed and reopened, by looking up each written ID — an acked insert must
// be there, an acked delete must not.
func (w *clusterWorkload) finish(ctx context.Context, res *result) {
	const samples = 20
	for _, q := range w.in.queries[:min(samples, len(w.in.queries))] {
		a, err := w.doHTTP(ctx, w.closed, op{kind: opKNN, obj: q})
		res.check(err == nil && sameKNN(a, oracleKNN(w.in.ds.Distance, w.live(), q, k)))
	}
	if err := w.stop(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: stop before reopen: %v\n", w.sp.name, err)
		res.check(false)
	}
	if err := w.start(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: reopen: %v\n", w.sp.name, err)
		res.check(false)
		return
	}
	for id, t := range w.touched {
		got, _, err := w.router.Range(ctx, t.obj, 0)
		found := false
		for _, r := range got {
			found = found || r.Object.ID() == id
		}
		res.check(err == nil && found == t.present)
	}
}

// parallelFor runs fn(i) for i in [0, n) on up to workers goroutines and
// returns when all have finished.
func parallelFor(n, workers int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
