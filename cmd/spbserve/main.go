// Command spbserve serves a persisted SPB-tree index over HTTP: range, kNN,
// approximate kNN and similarity-join queries with per-request deadlines,
// insert/delete on durable indexes, bounded concurrency with admission
// control, and per-endpoint metrics on /debug/vars. See the README's
// "Serving" section for a curl walkthrough.
//
// Usage:
//
//	spbserve -dir INDEXDIR [-addr :8080] [-workers N] [-queue N]
//	         [-timeout 5s] [-max-timeout 60s] [-nosync] [-graph]
//	spbserve -demo 50000 [-dim 8] [-addr :8080]
//	spbserve -cluster cluster.json -placement ROOT/placement.json [-addr :8080]
//
// -dir serves an index directory written by "spbtool build" (the directory's
// config.json supplies the metric). A durable directory (spbtool build
// -durable) reopens through crash recovery — the WAL tail beyond the last
// checkpoint is replayed, so every acknowledged write survives kill -9 — and
// serves POST /v1/insert and /v1/delete; a plain directory is read-only
// (writes answer 403). -demo builds a transient in-memory index over uniform
// random vectors on a Z-order curve (so /v1/join works) — handy for trying
// the API without building an index first.
//
// -graph builds the approximate graph tier (DESIGN.md §14) over the loaded
// index at startup, so POST /v1/knn serves {"mode":"ann","ef":N} from the
// graph; without it (or with a saved index whose graph.bin is absent or
// stale) mode=ann falls back to exact search. Local modes only — in -cluster
// mode graphs belong to the owning nodes.
//
// -workers bounds concurrent queries (admission control). Each query runs on
// one goroutine (DESIGN.md §9.1), so it is also the number of cores the
// service can keep busy.
//
// -cluster runs the same HTTP API as a cluster router: queries scatter to
// the nodes owning the relevant shards (see cmd/spbcluster and DESIGN.md
// §12) and gather-merge into answers byte-identical to a single-process
// index; a down node yields the healthy nodes' partial results plus a
// per-node error marker instead of a failure. Router mode adds two admin
// endpoints: GET/POST /admin/placement (inspect or hot-swap the shard
// placement) and POST /admin/handoff {"shard":N,"to":"node"} (move a shard
// live). OPERATIONS.md is the runbook.
//
// SIGINT/SIGTERM trigger a graceful drain: new queries get 503, in-flight
// ones finish under their own deadlines, then the process exits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"spbtree/internal/core"
	"spbtree/internal/metric"
	"spbtree/internal/server"
	"spbtree/internal/sfc"
)

// parsers bundles the request parsers derived from a persisted config: one
// for query objects (reserved id) and one for insert/delete objects (caller
// id).
type parsers struct {
	query server.ParseQueryFunc
	obj   server.ParseObjectFunc
}

// lineParsers derives both parsers from one line-parsing function.
func lineParsers(parse func(id uint64, line string) (metric.Object, error)) parsers {
	return parsers{query: server.TextParser(parse), obj: server.TextObjects(parse)}
}

// resolve returns the metric, codec and request parsers of a persisted
// space (spbtool's config.json, or the one a cluster config embeds).
func resolve(sp metric.Space) (metric.DistanceFunc, metric.Codec, parsers, error) {
	dist, codec, parse, err := sp.Resolve()
	if err != nil {
		return nil, nil, parsers{}, fmt.Errorf("config.json: %w", err)
	}
	if sp.Type == "vectors" {
		// Requests carry a vector as a JSON array, not as a CSV line.
		return dist, codec, parsers{query: server.VectorParser(sp.Dim), obj: server.VectorObjects(sp.Dim)}, nil
	}
	return dist, codec, lineParsers(parse), nil
}

// openDir loads the persisted index at dir along with its request parsers. A
// directory with a CURRENT file is a durable index (spbtool build -durable):
// it reopens through the recovery path — WAL tail replayed into the delta,
// compactor restarted — and serves the write endpoints. A plain index
// directory loads read-only.
func openDir(dir string, nosync bool) (*core.Tree, parsers, error) {
	cj, err := os.ReadFile(filepath.Join(dir, "config.json"))
	if err != nil {
		return nil, parsers{}, err
	}
	var cfg metric.Space
	if err := json.Unmarshal(cj, &cfg); err != nil {
		return nil, parsers{}, fmt.Errorf("parse config.json: %w", err)
	}
	dist, codec, ps, err := resolve(cfg)
	if err != nil {
		return nil, parsers{}, err
	}
	lopts := core.LoadOptions{Distance: dist, Codec: codec}
	var tree *core.Tree
	if _, serr := os.Stat(filepath.Join(dir, core.CurrentFile)); serr == nil {
		tree, err = core.OpenDurable(dir, lopts, core.DurableOptions{NoSync: nosync})
	} else {
		tree, err = core.Load(dir, lopts)
	}
	if err != nil {
		return nil, parsers{}, err
	}
	return tree, ps, nil
}

// buildDemo builds a transient Z-order index over n uniform random vectors.
func buildDemo(n, dim int) (*core.Tree, parsers, error) {
	rng := rand.New(rand.NewSource(1))
	objs := make([]metric.Object, n)
	for i := range objs {
		coords := make([]float64, dim)
		for d := range coords {
			coords[d] = rng.Float64()
		}
		objs[i] = metric.NewVector(uint64(i), coords)
	}
	tree, err := core.Build(objs, core.Options{
		Distance: metric.L2(dim),
		Codec:    metric.VectorCodec{Dim: dim},
		Curve:    sfc.ZOrder,
	})
	if err != nil {
		return nil, parsers{}, err
	}
	return tree, parsers{query: server.VectorParser(dim), obj: server.VectorObjects(dim)}, nil
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	dir := flag.String("dir", "", "index directory written by spbtool build")
	demo := flag.Int("demo", 0, "serve a transient demo index over this many random vectors instead of -dir")
	dim := flag.Int("dim", 8, "demo vector dimensionality")
	workers := flag.Int("workers", 0, "concurrent query limit (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue depth (0 = 2x workers)")
	timeout := flag.Duration("timeout", 5*time.Second, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 60*time.Second, "cap on request-supplied deadlines")
	drainWait := flag.Duration("drain", 30*time.Second, "shutdown drain budget")
	nosync := flag.Bool("nosync", false, "skip WAL fsyncs on durable indexes (crash-unsafe; benchmarks only)")
	graph := flag.Bool("graph", false, "build the approximate graph tier at startup so /v1/knn serves mode=ann (local index modes only)")
	clusterCfg := flag.String("cluster", "", "cluster config file: run as the cluster's router instead of serving -dir")
	placementFile := flag.String("placement", "", "persisted placement.json (router mode; default derives the bootstrap placement from -cluster)")
	flag.Parse()

	var tree *core.Tree
	var ps parsers
	var router *routerState
	var err error
	switch {
	case *clusterCfg != "":
		router, ps, err = openCluster(*clusterCfg, *placementFile)
	case *demo > 0:
		fmt.Fprintf(os.Stderr, "building demo index: %d vectors, dim %d\n", *demo, *dim)
		tree, ps, err = buildDemo(*demo, *dim)
	case *dir != "":
		tree, ps, err = openDir(*dir, *nosync)
	default:
		return errors.New("spbserve needs -dir, -demo or -cluster (see -h)")
	}
	if err != nil {
		return err
	}
	if *graph {
		if tree == nil {
			return errors.New("-graph needs a local index (-dir or -demo); build graphs on the owning nodes in -cluster mode")
		}
		fmt.Fprintf(os.Stderr, "building approximate graph tier over %d objects\n", tree.Len())
		if err := tree.BuildGraph(core.GraphOptions{}); err != nil {
			tree.Close()
			return fmt.Errorf("build graph: %w", err)
		}
	}

	cfg := server.Config{
		ParseQuery:     ps.query,
		ParseObject:    ps.obj,
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MetricsName:    "spbserve",
	}
	if router != nil {
		defer router.r.Close()
		cfg.Backend = router.backend
	} else {
		defer tree.Close()
		cfg.Tree = tree
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	handler := srv.Handler()
	if router != nil {
		handler = router.adminMux(handler)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	if router != nil {
		p := router.r.Placement()
		fmt.Fprintf(os.Stderr, "routing %d shards across %d nodes (placement v%d) on %s\n",
			p.Shards, len(p.Nodes), p.Version, *addr)
	} else {
		mode := "read-only"
		if tree.Durable() {
			mode = "durable (writes enabled"
			if *nosync {
				mode += ", nosync"
			}
			mode += ")"
		}
		fmt.Fprintf(os.Stderr, "serving %d objects (%s curve, %s) on %s\n",
			tree.Len(), tree.CurveKind(), mode, *addr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "%v: draining (budget %v)\n", s, *drainWait)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "drain incomplete: %v\n", err)
	}
	return httpSrv.Shutdown(ctx)
}

func main() {
	if err := run(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "spbserve:", err)
		os.Exit(1)
	}
}
