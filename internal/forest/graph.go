package forest

import (
	"context"
	"errors"
	"fmt"

	"spbtree/internal/core"
	"spbtree/internal/metric"
)

// GraphSearcher is the optional shard capability for approximate graph
// search (DESIGN.md §14). Local trees implement it; shard types that do not
// (remote cluster handles) are served by the exact path instead — the
// scatter degrades per shard, never failing the query.
type GraphSearcher interface {
	KNNGraphCtx(ctx context.Context, q metric.Object, k int, opts core.SearchOptions) ([]core.Result, error)
	KNNGraphWithStatsCtx(ctx context.Context, q metric.Object, k int, opts core.SearchOptions) ([]core.Result, core.QueryStats, error)
}

// GraphBuilder is the optional shard capability for constructing the
// approximate graph tier.
type GraphBuilder interface {
	BuildGraphCtx(ctx context.Context, opts core.GraphOptions) error
}

// Local trees provide both capabilities.
var (
	_ GraphSearcher = (*core.Tree)(nil)
	_ GraphBuilder  = (*core.Tree)(nil)
)

// BuildGraph constructs the approximate graph tier on every shard; see
// BuildGraphCtx.
func (f *Forest) BuildGraph(opts core.GraphOptions) error {
	return f.BuildGraphCtx(context.Background(), opts)
}

// BuildGraphCtx scatters graph construction to every shard (bounded by the
// forest's parallelism limit). Every shard must support construction — an
// assembled forest with remote shards cannot build graphs from here; build
// them on the owning nodes instead.
func (f *Forest) BuildGraphCtx(ctx context.Context, opts core.GraphOptions) error {
	for i, s := range f.shards {
		if _, ok := s.(GraphBuilder); !ok {
			return fmt.Errorf("forest: shard %d cannot build a graph locally", i)
		}
	}
	return f.scatter(ctx, func(i int, s Shard) error {
		if err := s.(GraphBuilder).BuildGraphCtx(ctx, opts); err != nil {
			return fmt.Errorf("forest: shard %d: %w", i, err)
		}
		return nil
	})
}

// KNNGraph scatters approximate graph kNN to every shard and merges the
// per-shard candidates with MergeKNN, exactly like exact kNN — the (dist, ID)
// order is total, so the reduction stays associative. Shards without a live
// graph (or without the capability at all) answer through the exact path, so
// the merged result is never worse than the weakest shard's exact answer.
func (f *Forest) KNNGraph(q metric.Object, k int, opts core.SearchOptions) ([]core.Result, error) {
	return f.KNNGraphCtx(context.Background(), q, k, opts)
}

// KNNGraphCtx is KNNGraph honoring ctx, with the usual partial-result
// contract: whatever the finished shards produced, merged and cut to k, plus
// an error matching core.ErrCanceled on cancellation.
func (f *Forest) KNNGraphCtx(ctx context.Context, q metric.Object, k int, opts core.SearchOptions) ([]core.Result, error) {
	per := make([][]core.Result, len(f.shards))
	err := f.scatter(ctx, func(i int, s Shard) error {
		if gs, ok := s.(GraphSearcher); ok {
			res, err := gs.KNNGraphCtx(ctx, q, k, opts)
			if !errors.Is(err, core.ErrNoGraph) {
				per[i] = res
				return err
			}
		}
		res, err := s.KNNCtx(ctx, q, k)
		per[i] = res
		return err
	})
	return MergeKNN(per, k), err
}

// KNNGraphWithStatsCtx is KNNGraphCtx, additionally gathering the merged
// per-shard QueryStats — GraphHops/GraphCandidates add across the shards
// that answered from their graph, and stay zero for shards that fell back to
// exact search.
func (f *Forest) KNNGraphWithStatsCtx(ctx context.Context, q metric.Object, k int, opts core.SearchOptions) ([]core.Result, core.QueryStats, error) {
	per := make([][]core.Result, len(f.shards))
	stats := make([]core.QueryStats, len(f.shards))
	err := f.scatter(ctx, func(i int, s Shard) error {
		if gs, ok := s.(GraphSearcher); ok {
			res, qs, err := gs.KNNGraphWithStatsCtx(ctx, q, k, opts)
			if !errors.Is(err, core.ErrNoGraph) {
				per[i], stats[i] = res, qs
				return err
			}
		}
		res, qs, err := s.KNNWithStatsCtx(ctx, q, k)
		per[i], stats[i] = res, qs
		return err
	})
	out := MergeKNN(per, k)
	return out, gatherStats(stats, len(out)), err
}
