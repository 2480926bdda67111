package server

import (
	"context"
	"fmt"

	"spbtree/internal/core"
	"spbtree/internal/metric"
	"spbtree/internal/sfc"
)

// Backend is the index the HTTP layer serves — the seam at which a single
// local tree and a whole cluster are interchangeable. Query is
// core.Tree.Query's signature and contract (partials travel with typed
// errors; errors.Is(err, core.ErrCanceled) marks deadline cancellations), so
// TreeBackend forwards it and only adapts the mutation and stats surface. A
// cluster router mounts here via its own adapter (internal/cluster's
// ServerBackend), giving spbserve its router mode without the HTTP layer
// knowing about nodes or placement.
type Backend interface {
	// Query answers one range or kNN request with the query's stats. An
	// OpKNNGraph request on an index with no live graph answers
	// core.ErrNoGraph, and the server degrades it to the exact request.
	Query(ctx context.Context, q core.Query) ([]core.Result, core.QueryStats, error)
	// SelfJoinWithStatsCtx computes SJ(D, D, eps) over the backend's own
	// object set, as ID pairs.
	SelfJoinWithStatsCtx(ctx context.Context, eps float64) ([]core.IDPair, core.QueryStats, error)
	// CanJoin reports (as an error, for the 400 response) whether the
	// backend supports similarity joins.
	CanJoin() error
	// Insert upserts obj; Delete removes it (core.ErrNotFound when absent).
	// Both honor ctx where the backend can (a local durable tree runs a
	// started mutation to its WAL acknowledgement regardless).
	Insert(ctx context.Context, obj metric.Object) error
	Delete(ctx context.Context, obj metric.Object) error
	// Writable reports whether mutations are supported at all; false maps
	// to 403 on the write endpoints.
	Writable() bool
	// Len is the backend's live object count.
	Len() int
	// Delta is the backend's buffered-mutation count (0 where meaningless).
	Delta() int
	// StatsFields contributes the backend-specific portion of /v1/stats
	// (objects, curve, storage shape, ...); the serving layer merges in its
	// own endpoint and admission metrics.
	StatsFields() map[string]interface{}
}

// TreeBackend serves one local SPB-tree — the Backend every pre-cluster
// deployment uses, and the one Config.Tree wraps implicitly.
type TreeBackend struct {
	T *core.Tree
}

// NewTreeBackend wraps t.
func NewTreeBackend(t *core.Tree) *TreeBackend { return &TreeBackend{T: t} }

// Query implements Backend.
func (b *TreeBackend) Query(ctx context.Context, q core.Query) ([]core.Result, core.QueryStats, error) {
	return b.T.Query(ctx, q)
}

// SelfJoinWithStatsCtx implements Backend as SJ(T, T, eps).
func (b *TreeBackend) SelfJoinWithStatsCtx(ctx context.Context, eps float64) ([]core.IDPair, core.QueryStats, error) {
	pairs, qs, err := core.JoinWithStatsCtx(ctx, b.T, b.T, eps)
	return core.IDPairs(pairs), qs, err
}

// CanJoin implements Backend: similarity joins need a Z-order curve
// (Lemma 6).
func (b *TreeBackend) CanJoin() error {
	if b.T.CurveKind() != sfc.ZOrder {
		return fmt.Errorf("similarity joins need a Z-order index (this index uses %v)", b.T.CurveKind())
	}
	return nil
}

// Insert implements Backend. The context is intentionally ignored: a
// mutation that reaches the tree runs to its WAL acknowledgement, because a
// write already logged must not be reported as canceled.
func (b *TreeBackend) Insert(_ context.Context, obj metric.Object) error { return b.T.Insert(obj) }

// Delete implements Backend (see Insert for the context contract).
func (b *TreeBackend) Delete(_ context.Context, obj metric.Object) error { return b.T.Delete(obj) }

// Writable implements Backend: only durable trees take writes.
func (b *TreeBackend) Writable() bool { return b.T.Durable() }

// Len implements Backend.
func (b *TreeBackend) Len() int { return b.T.Len() }

// Delta implements Backend.
func (b *TreeBackend) Delta() int {
	if !b.T.Durable() {
		return 0
	}
	return b.T.DeltaLen()
}

// StatsFields implements Backend with the tree's shape and per-operation
// aggregates (the documented /v1/stats top-level keys).
func (b *TreeBackend) StatsFields() map[string]interface{} {
	m := map[string]interface{}{
		"objects":       b.T.Len(),
		"pivots":        len(b.T.Pivots()),
		"curve":         b.T.CurveKind().String(),
		"storage_bytes": b.T.StorageBytes(),
		"tree":          b.T.Metrics().Snapshot(),
	}
	if b.T.Durable() {
		m["delta"] = b.T.DeltaLen()
		if ws, ok := b.T.WALStats(); ok {
			m["wal"] = map[string]int64{
				"appends": ws.Appends,
				"batches": ws.Batches,
				"syncs":   ws.Syncs,
			}
		}
	}
	return m
}
