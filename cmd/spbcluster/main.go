// Command spbcluster operates a multi-node SPB-tree cluster: it lays a
// partitioned index out across node data directories, runs one node's
// shard server, and rebalances shards between running nodes. The companion
// router is "spbserve -cluster", which fronts the nodes with the standard
// HTTP query API. OPERATIONS.md walks through a full 3-node deployment;
// DESIGN.md §12 specifies the protocol and placement machinery.
//
// Usage:
//
//	spbcluster init -config cluster.json -root DIR -dataset words -n 20000 [-seed 1]
//	spbcluster node -config cluster.json -root DIR -name n1 [-debug-addr :9101]
//	spbcluster rebalance -config cluster.json -root DIR -shard 3 -to n2 [-router http://...]
//
// init hash-partitions the dataset into the configured shard count, builds
// one durable shard tree per partition under ROOT/<owner>/shard-NNN (all
// sharing one pivot mapping, so the cluster answers byte-identically to a
// single-process forest), and writes ROOT/placement.json.
//
// node serves the shards found in ROOT/<name> on the address cluster.json
// assigns to <name>. -debug-addr additionally serves /debug/vars with the
// node's per-RPC latency histograms.
//
// rebalance moves one shard to a new owner while the cluster serves
// queries (freeze → copy → activate → flip → drop), rewrites
// ROOT/placement.json, and — when -router names a running router's
// address — POSTs the new placement to /admin/placement so it takes effect
// there immediately (other routers catch up on their next ErrNotOwner).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"spbtree/internal/cluster"
	"spbtree/internal/core"
	"spbtree/internal/dataset"
)

// placementPath is where init and rebalance persist the authoritative
// placement, relative to the cluster root.
func placementPath(root string) string { return filepath.Join(root, "placement.json") }

// loadPlacement reads the persisted placement, falling back to the
// config-derived bootstrap placement when none was written yet.
func loadPlacement(cfg *cluster.Config, root string) (*cluster.Placement, error) {
	b, err := os.ReadFile(placementPath(root))
	if os.IsNotExist(err) {
		return cfg.Placement(), nil
	}
	if err != nil {
		return nil, err
	}
	var p cluster.Placement
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("parse %s: %w", placementPath(root), err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// savePlacement persists the placement atomically and durably: a crash
// leaves the old placement.json or the new one, never an empty file that
// loadPlacement would refuse and no node could restart from.
func savePlacement(root string, p *cluster.Placement) error {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return core.WriteFileAtomic(placementPath(root), append(b, '\n'))
}

// cmdInit bootstraps the cluster's on-disk state from a generated dataset.
func cmdInit(args []string) error {
	fs := flag.NewFlagSet("init", flag.ExitOnError)
	cfgPath := fs.String("config", "cluster.json", "cluster config file")
	root := fs.String("root", "", "cluster data root (one subdirectory per node)")
	dsName := fs.String("dataset", "words", "dataset generator (words|color|dna|dnaedit)")
	n := fs.Int("n", 20000, "dataset size")
	seed := fs.Int64("seed", 1, "dataset and pivot-selection seed")
	fs.Parse(args)
	if *root == "" {
		return fmt.Errorf("init needs -root")
	}
	cfg, err := cluster.LoadConfig(*cfgPath)
	if err != nil {
		return err
	}
	ds, ok := dataset.ByName(*dsName, *n, *seed)
	if !ok {
		return fmt.Errorf("unknown dataset %q", *dsName)
	}
	dist, codec, err := cfg.Space()
	if err != nil {
		return err
	}
	// The dataset must live in the configured space: a words cluster takes
	// string datasets, a vectors cluster takes vector datasets. The
	// config's metric is authoritative (every node reopens with it).
	if dist.Name() != ds.Distance.Name() {
		return fmt.Errorf("dataset %s uses metric %s, but %s configures %s",
			ds.Name, ds.Distance.Name(), *cfgPath, dist.Name())
	}
	start := time.Now()
	placement, err := cluster.Bootstrap(cfg, ds.Objects, cluster.BootstrapOptions{
		Dir: *root,
		Tree: core.Options{Distance: dist, Codec: codec,
			Curve: cfg.CurveKind(), Seed: *seed},
	})
	if err != nil {
		return err
	}
	if err := savePlacement(*root, placement); err != nil {
		return err
	}
	for _, name := range cfg.NodeNames() {
		fmt.Printf("node %-8s shards %v\n", name, placement.ShardsOf(name))
	}
	fmt.Printf("bootstrapped %d objects into %d shards under %s in %v\n",
		len(ds.Objects), cfg.Shards, *root, time.Since(start).Round(time.Millisecond))
	return nil
}

// cmdNode runs one node's shard server until killed.
func cmdNode(args []string) error {
	fs := flag.NewFlagSet("node", flag.ExitOnError)
	cfgPath := fs.String("config", "cluster.json", "cluster config file")
	root := fs.String("root", "", "cluster data root")
	name := fs.String("name", "", "this node's name in the config")
	debugAddr := fs.String("debug-addr", "", "serve /debug/vars on this address (empty = off)")
	parallel := fs.Int("parallel", 0, "concurrent shard scans per request (0 = all owned shards)")
	nosync := fs.Bool("nosync", false, "skip WAL fsyncs (crash-unsafe; benchmarks only)")
	fs.Parse(args)
	if *root == "" || *name == "" {
		return fmt.Errorf("node needs -root and -name")
	}
	cfg, err := cluster.LoadConfig(*cfgPath)
	if err != nil {
		return err
	}
	addr := ""
	for _, nd := range cfg.Nodes {
		if nd.Name == *name {
			addr = nd.Addr
		}
	}
	if addr == "" {
		return fmt.Errorf("node %q is not in %s", *name, *cfgPath)
	}
	dist, codec, err := cfg.Space()
	if err != nil {
		return err
	}
	node, err := cluster.OpenNode(cluster.NodeConfig{
		Name:     *name,
		Dir:      cluster.NodeDir(*root, *name),
		Load:     core.LoadOptions{Distance: dist, Codec: codec},
		Durable:  core.DurableOptions{NoSync: *nosync},
		Parallel: *parallel,
	})
	if err != nil {
		return err
	}
	defer node.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if *debugAddr != "" {
		go func() {
			mux := http.NewServeMux()
			mux.Handle("GET /debug/vars", expvar.Handler())
			http.ListenAndServe(*debugAddr, mux)
		}()
	}
	fmt.Fprintf(os.Stderr, "node %s serving shards %v on %s\n", *name, node.Shards(), addr)
	return node.Serve(ln)
}

// cmdRebalance moves one shard to a new owner through a running cluster.
func cmdRebalance(args []string) error {
	fs := flag.NewFlagSet("rebalance", flag.ExitOnError)
	cfgPath := fs.String("config", "cluster.json", "cluster config file")
	root := fs.String("root", "", "cluster data root (for placement.json)")
	shard := fs.Int("shard", -1, "shard to move")
	to := fs.String("to", "", "destination node name")
	routerAddr := fs.String("router", "", "running router's HTTP address to notify (e.g. http://localhost:8080)")
	timeout := fs.Duration("timeout", 5*time.Minute, "handoff deadline")
	fs.Parse(args)
	if *root == "" || *shard < 0 || *to == "" {
		return fmt.Errorf("rebalance needs -root, -shard and -to")
	}
	cfg, err := cluster.LoadConfig(*cfgPath)
	if err != nil {
		return err
	}
	placement, err := loadPlacement(cfg, *root)
	if err != nil {
		return err
	}
	_, codec, err := cfg.Space()
	if err != nil {
		return err
	}
	router, err := cluster.NewRouter(placement, codec)
	if err != nil {
		return err
	}
	defer router.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	source := placement.Owners[*shard]
	start := time.Now()
	if err := router.Handoff(ctx, *shard, *to); err != nil {
		return err
	}
	np := router.Placement()
	if err := savePlacement(*root, np); err != nil {
		return err
	}
	fmt.Printf("shard %d moved %s -> %s in %v (placement v%d)\n",
		*shard, source, *to, time.Since(start).Round(time.Millisecond), np.Version)
	if *routerAddr != "" {
		if err := notifyRouter(*routerAddr, np); err != nil {
			return fmt.Errorf("placement saved, but notifying the router failed (it will catch up on its next stale query): %w", err)
		}
		fmt.Printf("router %s updated\n", *routerAddr)
	}
	return nil
}

// notifyRouter POSTs the new placement to a running router's admin
// endpoint.
func notifyRouter(addr string, p *cluster.Placement) error {
	b, err := json.Marshal(p)
	if err != nil {
		return err
	}
	resp, err := http.Post(addr+"/admin/placement", "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("router answered %s", resp.Status)
	}
	return nil
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: spbcluster <init|node|rebalance> [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "init":
		err = cmdInit(os.Args[2:])
	case "node":
		err = cmdNode(os.Args[2:])
	case "rebalance":
		err = cmdRebalance(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q (want init, node or rebalance)", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spbcluster:", err)
		os.Exit(1)
	}
}
