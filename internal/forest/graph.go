package forest

import (
	"context"
	"fmt"

	"spbtree/internal/core"
)

// BuildGraph constructs the approximate graph tier on every shard; see
// BuildGraphCtx.
func (f *Forest) BuildGraph(opts core.GraphOptions) error {
	return f.BuildGraphCtx(context.Background(), opts)
}

// BuildGraphCtx scatters graph construction to every shard (bounded by the
// forest's parallelism limit). Query with Op core.OpKNNGraph then answers
// from the per-shard graphs (DESIGN.md §14).
func (f *Forest) BuildGraphCtx(ctx context.Context, opts core.GraphOptions) error {
	return f.scatter(ctx, f.allShards(), func(i int, t *core.Tree) error {
		if err := t.BuildGraphCtx(ctx, opts); err != nil {
			return fmt.Errorf("forest: shard %d: %w", i, err)
		}
		return nil
	})
}
