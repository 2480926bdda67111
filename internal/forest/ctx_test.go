package forest

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"spbtree/internal/core"
	"spbtree/internal/metric"
)

// TestScatterStopsOnCancel: shards not yet dispatched when the context is
// canceled never run — the scatter loop must stop issuing work, not fire one
// goroutine per shard regardless.
func TestScatterStopsOnCancel(t *testing.T) {
	objs := vectors(600, 3, 11, 0)
	f, err := Build(objs, Options{
		Tree: core.Options{
			Distance: metric.L2(3), Codec: metric.VectorCodec{Dim: 3}, NumPivots: 2,
		},
		Shards:   6,
		Parallel: 1, // serialize dispatch so cancellation lands between shards
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var launched atomic.Int32
	err = f.scatter(ctx, f.allShards(), func(i int, _ *core.Tree) error {
		if launched.Add(1) == 1 {
			cancel() // cancel while the first shard is still running
		}
		return nil
	})
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if n := launched.Load(); n > 2 {
		t.Fatalf("%d shards launched after cancellation (dispatch did not stop)", n)
	}
}

// TestScatterNoDispatchAfterCancelObserved: once cancellation is observable,
// not one more shard may be dispatched. With Parallel=1 and shard 0 canceling
// before it returns, ctx.Done() is ready strictly before the slot frees; the
// dispatcher waiting in its select then has both cases ready, and Go picks
// between ready cases at random — the old loop would dispatch shard 1 on the
// sem-win half of those races. The fixed loop re-checks ctx after winning the
// slot, so shard 0 must remain the only shard that ever ran, every iteration.
func TestScatterNoDispatchAfterCancelObserved(t *testing.T) {
	objs := vectors(800, 3, 17, 0)
	f, err := Build(objs, Options{
		Tree: core.Options{
			Distance: metric.L2(3), Codec: metric.VectorCodec{Dim: 3}, NumPivots: 2,
		},
		Shards:   8,
		Parallel: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 50; iter++ {
		ctx, cancel := context.WithCancel(context.Background())
		var launched atomic.Int32
		err := f.scatter(ctx, f.allShards(), func(i int, _ *core.Tree) error {
			launched.Add(1)
			cancel() // observable before this shard's slot frees
			return nil
		})
		cancel()
		if !errors.Is(err, core.ErrCanceled) {
			t.Fatalf("iter %d: err = %v, want ErrCanceled", iter, err)
		}
		if n := launched.Load(); n != 1 {
			t.Fatalf("iter %d: %d shards ran after cancellation was observable, want exactly 1", iter, n)
		}
	}
}

// TestScatterStopsOnError: once one shard fails, un-dispatched shards never
// start, and the first error (in shard order) is returned.
func TestScatterStopsOnError(t *testing.T) {
	objs := vectors(600, 3, 12, 0)
	f, err := Build(objs, Options{
		Tree: core.Options{
			Distance: metric.L2(3), Codec: metric.VectorCodec{Dim: 3}, NumPivots: 2,
		},
		Shards:   6,
		Parallel: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("shard exploded")
	var launched atomic.Int32
	err = f.scatter(context.Background(), f.allShards(), func(i int, _ *core.Tree) error {
		launched.Add(1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the shard error", err)
	}
	// With Parallel=1 the dispatcher re-checks the failure flag before each
	// shard; at most the shard already in flight alongside the failure runs.
	if n := launched.Load(); n > 2 {
		t.Fatalf("%d shards launched after a shard error", n)
	}
}

// TestForestQueryCtxPartials: forest queries under an expired context return
// gathered partials plus ErrCanceled, matching the single-tree contract.
func TestForestQueryCtxPartials(t *testing.T) {
	objs := vectors(500, 3, 13, 0)
	f, err := Build(objs, Options{
		Tree: core.Options{
			Distance: metric.L2(3), Codec: metric.VectorCodec{Dim: 3}, NumPivots: 2,
		},
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := f.Query(ctx, core.Query{Op: core.OpRange, Q: objs[0], Radius: 0.3}); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("range: err = %v, want ErrCanceled", err)
	}
	if _, _, err := f.Query(ctx, core.Query{Op: core.OpKNN, Q: objs[0], K: 5}); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("knn: err = %v, want ErrCanceled", err)
	}

	// The RangeQuery convenience is Query under a background context.
	plain, err := f.RangeQuery(objs[0], 0.3)
	if err != nil {
		t.Fatal(err)
	}
	withCtx, _, err := f.Query(context.Background(), core.Query{Op: core.OpRange, Q: objs[0], Radius: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(withCtx) {
		t.Fatalf("RangeQuery disagrees with Query: %d vs %d", len(plain), len(withCtx))
	}
}
