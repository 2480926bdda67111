package cluster

import (
	"context"
	"fmt"
	"time"

	"spbtree/internal/core"
	"spbtree/internal/metric"
)

// ServerBackend adapts a Router to the HTTP serving layer's backend seam
// (internal/server.Backend, satisfied structurally): spbserve's -cluster
// mode mounts one of these, and the whole HTTP surface — queries with
// partial results, mutations, /v1/stats — fronts the cluster without the
// serving layer knowing about nodes or placement. Per-node failures arrive
// at HTTP clients as partial results plus the canceled/error markers the
// single-tree server already emits.
type ServerBackend struct {
	R *Router
	// Curve names the cluster's SFC family for /v1/stats ("hilbert" or
	// "zorder") and gates joins.
	Curve string
}

// statsTimeout bounds the node fan-outs behind Len/StatsFields — liveness
// endpoints must answer even with a node down.
const statsTimeout = 2 * time.Second

// Query implements the backend query surface. The cluster has no graph tier
// across the wire, so a graph request (mode=ann) is answered exactly.
func (b *ServerBackend) Query(ctx context.Context, q core.Query) ([]core.Result, core.QueryStats, error) {
	if q.Op == core.OpKNNGraph {
		q = q.Exact()
	}
	return b.R.Query(ctx, q)
}

// SelfJoinWithStatsCtx implements the backend join surface as the cluster
// self-join.
func (b *ServerBackend) SelfJoinWithStatsCtx(ctx context.Context, eps float64) ([]core.IDPair, core.QueryStats, error) {
	start := time.Now()
	pairs, err := b.R.Join(ctx, eps)
	qs := core.QueryStats{Op: core.OpJoin, Results: len(pairs), Elapsed: time.Since(start)}
	return pairs, qs, err
}

// CanJoin reports whether the cluster's curve supports similarity joins.
func (b *ServerBackend) CanJoin() error {
	if b.Curve != "zorder" {
		return fmt.Errorf("similarity joins need a Z-order cluster (this one uses %s)", b.Curve)
	}
	return nil
}

// Insert implements the backend write surface.
func (b *ServerBackend) Insert(ctx context.Context, obj metric.Object) error {
	return b.R.Insert(ctx, obj)
}

// Delete implements the backend write surface.
func (b *ServerBackend) Delete(ctx context.Context, obj metric.Object) error {
	return b.R.Delete(ctx, obj)
}

// Writable implements the backend write surface: cluster shards are always
// durable trees.
func (b *ServerBackend) Writable() bool { return true }

// Len totals the cluster's live objects (best effort: down nodes
// contribute nothing).
func (b *ServerBackend) Len() int {
	ctx, cancel := context.WithTimeout(context.Background(), statsTimeout)
	defer cancel()
	return b.R.Stats(ctx).Objects()
}

// Delta implements the backend surface; per-node deltas are reported in
// StatsFields instead of one number here.
func (b *ServerBackend) Delta() int { return 0 }

// StatsFields contributes the cluster's shape to /v1/stats: totals,
// per-node snapshots, the live placement, and any per-node fetch failures.
func (b *ServerBackend) StatsFields() map[string]interface{} {
	ctx, cancel := context.WithTimeout(context.Background(), statsTimeout)
	defer cancel()
	cs := b.R.Stats(ctx)
	storage := int64(0)
	nodes := make([]map[string]interface{}, 0, len(cs.Nodes))
	for _, n := range cs.Nodes {
		shards := make([]map[string]interface{}, 0, len(n.Shards))
		for _, sh := range n.Shards {
			storage += sh.StorageBytes
			shards = append(shards, map[string]interface{}{
				"id": sh.ID, "objects": sh.Objects, "delta": sh.Delta,
				"storage_bytes": sh.StorageBytes, "frozen": sh.Frozen,
			})
		}
		nodes = append(nodes, map[string]interface{}{"name": n.Name, "shards": shards})
	}
	m := map[string]interface{}{
		"objects":       cs.Objects(),
		"curve":         b.Curve,
		"storage_bytes": storage,
		"cluster": map[string]interface{}{
			"placement_version": cs.Placement.Version,
			"shards":            cs.Placement.Shards,
			"nodes":             nodes,
		},
	}
	if len(cs.Errors) > 0 {
		m["cluster_errors"] = cs.Errors
	}
	return m
}
