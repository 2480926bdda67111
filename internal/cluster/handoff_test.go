package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spbtree/internal/core"
	"spbtree/internal/dataset"
	"spbtree/internal/forest"
	"spbtree/internal/metric"
)

// pickHandoff returns a (shard, target) pair where target does not
// currently own shard.
func pickHandoff(tc *testCluster) (int, string) {
	p := tc.router.Placement()
	for s := 0; s < p.Shards; s++ {
		for _, n := range tc.nodes {
			if n.cfg.Name != p.Owners[s] {
				return s, n.cfg.Name
			}
		}
	}
	panic("unreachable: multiple nodes exist")
}

// TestHandoffMovesShard: after a handoff, the placement names the new
// owner, the files live under the target, the source's copy is gone, and
// the cluster still answers byte-identically.
func TestHandoffMovesShard(t *testing.T) {
	ds := dataset.Words(700, 29)
	tc := startCluster(t, ds, 4)
	ctx := context.Background()
	shard, target := pickHandoff(tc)
	source := tc.router.Placement().Owners[shard]
	v0 := tc.router.Placement().Version

	if err := tc.router.Handoff(ctx, shard, target); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	p := tc.router.Placement()
	if p.Owners[shard] != target {
		t.Fatalf("shard %d owned by %s after handoff, want %s", shard, p.Owners[shard], target)
	}
	if p.Version != v0+1 {
		t.Fatalf("placement version %d, want %d", p.Version, v0+1)
	}

	srcDir := filepath.Join(tc.node(source).cfg.Dir, fmt.Sprintf("shard-%03d", shard))
	if _, err := os.Stat(srcDir); !os.IsNotExist(err) {
		t.Fatalf("source still has %s (stat err %v)", srcDir, err)
	}
	tgtDir := filepath.Join(tc.node(target).cfg.Dir, fmt.Sprintf("shard-%03d", shard))
	if _, err := os.Stat(tgtDir); err != nil {
		t.Fatalf("target missing %s: %v", tgtDir, err)
	}

	// Equivalence still holds through the moved shard.
	for qi := 0; qi < 4; qi++ {
		q := tc.objs[qi*41]
		got, _, err := tc.router.Query(ctx, core.Query{Op: core.OpRange, Q: q, Radius: 2, Timed: true})
		if err != nil {
			t.Fatalf("range after handoff: %v", err)
		}
		want, err := tc.ref.RangeQuery(q, 2)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("post-handoff range q%d", qi), got, want)
	}

	// The moved shard accepts writes again (it was frozen during the copy).
	// Choose an ID congruent to the shard so the insert routes to it.
	obj := metric.NewStr(200000-uint64(200000%4)+uint64(shard), "afterhandoff")
	if forest.PartitionOf(obj.ID(), 4) != shard {
		t.Fatalf("test bug: object routes to shard %d, want %d", forest.PartitionOf(obj.ID(), 4), shard)
	}
	if err := tc.router.Insert(ctx, obj); err != nil {
		t.Fatalf("insert into moved shard: %v", err)
	}
	got, _, err := tc.router.Query(ctx, core.Query{Op: core.OpRange, Q: obj, Radius: 0, Timed: true})
	if err != nil || len(got) == 0 {
		t.Fatalf("inserted object not found after handoff (err %v)", err)
	}
}

// TestHandoffStaleRouterRetries: a router still holding the old placement
// learns about a completed handoff from ErrNotOwner, refreshes, and
// retries — the caller sees a complete answer, not an error.
func TestHandoffStaleRouterRetries(t *testing.T) {
	ds := dataset.Words(700, 31)
	tc := startCluster(t, ds, 4)
	ctx := context.Background()
	shard, target := pickHandoff(tc)

	// A second router keeps the pre-handoff placement; its Refresh pulls the
	// fresh one from the first router.
	stale, err := NewRouter(tc.router.Placement(), ds.Codec)
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	stale.Refresh = func(context.Context) (*Placement, error) {
		return tc.router.Placement(), nil
	}

	if err := tc.router.Handoff(ctx, shard, target); err != nil {
		t.Fatalf("handoff: %v", err)
	}

	q := tc.objs[7]
	got, _, err := stale.Query(ctx, core.Query{Op: core.OpRange, Q: q, Radius: 2, Timed: true})
	if err != nil {
		t.Fatalf("stale router range: %v", err)
	}
	want, err := tc.ref.RangeQuery(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "stale-router range", got, want)
	if stale.Placement().Owners[shard] != target {
		t.Fatalf("stale router did not adopt the refreshed placement")
	}
}

// TestHandoffDuringQueries: queries hammer the cluster while a shard moves.
// Every query must succeed with the byte-identical answer — reads are
// served by the source until the atomic placement flip, and stale
// dispatches after the flip retry via Refresh. Run under -race this also
// checks the placement swap and shard-map locking.
func TestHandoffDuringQueries(t *testing.T) {
	ds := dataset.Words(700, 37)
	tc := startCluster(t, ds, 4)
	// Self-refresh: the same router performs the handoff, so its placement
	// pointer is always current; Refresh just re-reads it.
	tc.router.Refresh = func(context.Context) (*Placement, error) {
		return tc.router.Placement(), nil
	}
	ctx := context.Background()

	type qa struct {
		q    metric.Object
		want []string
	}
	cases := make([]qa, 5)
	for i := range cases {
		q := tc.objs[i*53]
		want, err := tc.ref.RangeQuery(q, 2)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, len(want))
		for j, r := range want {
			keys[j] = fmt.Sprintf("%d/%v/%v", r.Object.ID(), r.Dist, r.Exact)
		}
		cases[i] = qa{q: q, want: keys}
	}

	var stop atomic.Bool
	var queries atomic.Int64
	errCh := make(chan error, 8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				c := cases[(w+i)%len(cases)]
				got, _, err := tc.router.Query(ctx, core.Query{Op: core.OpRange, Q: c.q, Radius: 2, Timed: true})
				if err != nil {
					errCh <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				if len(got) != len(c.want) {
					errCh <- fmt.Errorf("worker %d: %d results, want %d", w, len(got), len(c.want))
					return
				}
				for j, r := range got {
					key := fmt.Sprintf("%d/%v/%v", r.Object.ID(), r.Dist, r.Exact)
					if key != c.want[j] {
						errCh <- fmt.Errorf("worker %d: result %d = %s, want %s", w, j, key, c.want[j])
						return
					}
				}
				queries.Add(1)
			}
		}(w)
	}

	// Move two shards back and forth while the workers run.
	for round := 0; round < 2; round++ {
		shard, target := pickHandoff(tc)
		source := tc.router.Placement().Owners[shard]
		if err := tc.router.Handoff(ctx, shard, target); err != nil {
			t.Fatalf("handoff round %d: %v", round, err)
		}
		if err := tc.router.Handoff(ctx, shard, source); err != nil {
			t.Fatalf("handoff back round %d: %v", round, err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if queries.Load() == 0 {
		t.Fatal("no queries completed during the handoffs")
	}
	t.Logf("%d queries answered correctly across 4 handoffs", queries.Load())
}

// TestHandoffFrozenWrites: mutations against a frozen shard fail typed
// (ErrShardFrozen) rather than corrupting the copy, and unfreeze restores
// them. Exercised through the node RPC surface directly.
func TestHandoffFrozenWrites(t *testing.T) {
	ds := dataset.Words(400, 41)
	tc := startCluster(t, ds, 4)
	ctx := context.Background()
	p := tc.router.Placement()
	shard := 0
	owner := p.Owners[shard]
	addr := p.Nodes[owner]

	c := NewClient(addr)
	defer c.Close()
	var fr rpcFreezeResp
	if err := c.Call(ctx, kFreeze, rpcFreezeReq{Shard: shard, On: true}, &fr); err != nil {
		t.Fatalf("freeze: %v", err)
	}
	if fr.Err != nil {
		t.Fatalf("freeze: %v", fromWireErr(fr.Err))
	}

	obj := metric.NewStr(uint64(300000+shard), "frozenwrite")
	if forest.PartitionOf(obj.ID(), p.Shards) != shard {
		t.Fatalf("test bug: object routes to shard %d, want %d", forest.PartitionOf(obj.ID(), p.Shards), shard)
	}
	err := tc.router.Insert(ctx, obj)
	if !errors.Is(err, ErrShardFrozen) {
		t.Fatalf("insert into frozen shard: err = %v, want ErrShardFrozen", err)
	}

	if err := c.Call(ctx, kFreeze, rpcFreezeReq{Shard: shard, On: false}, &fr); err != nil {
		t.Fatalf("unfreeze: %v", err)
	}
	if err := tc.router.Insert(ctx, obj); err != nil {
		t.Fatalf("insert after unfreeze: %v", err)
	}
}
