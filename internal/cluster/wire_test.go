package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"spbtree/internal/core"
	"spbtree/internal/dataset"
)

// TestFrameRoundTrip: a frame written with writeFrame reads back with the
// same request id, kind, and an intact gob payload.
func TestFrameRoundTrip(t *testing.T) {
	req := rpcQueryReq{
		Shards:     []int{0, 2, 5},
		Q:          wireObj{ID: 42, Data: []byte("query")},
		Query:      core.Query{Op: core.OpKNN, K: 4, Bounded: true, Bound: 1.5, Timed: true},
		DeadlineUS: 123456,
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, new(sync.Mutex), 7, kQuery, req); err != nil {
		t.Fatal(err)
	}
	reqID, kind, payload, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if reqID != 7 || kind != kQuery {
		t.Fatalf("header = (%d, %d), want (7, %d)", reqID, kind, kQuery)
	}
	var got rpcQueryReq
	if err := decodePayload(payload, &got); err != nil {
		t.Fatal(err)
	}
	if got.Q.ID != 42 || string(got.Q.Data) != "query" || got.Query != req.Query ||
		got.DeadlineUS != 123456 || len(got.Shards) != 3 {
		t.Fatalf("payload mangled: %+v", got)
	}
}

// TestFrameRejectsOversize: a header claiming more than maxFramePayload is
// rejected before any allocation.
func TestFrameRejectsOversize(t *testing.T) {
	hdr := make([]byte, frameHeaderLen)
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xFF, 0xFF, 0xFF, 0xFF
	_, _, _, err := readFrame(bytes.NewReader(hdr))
	if err == nil {
		t.Fatal("oversize frame accepted")
	}
}

// TestWireErrPreservesIs: typed sentinel errors survive the wire — a
// router-side errors.Is sees the same sentinel the node returned.
func TestWireErrPreservesIs(t *testing.T) {
	cases := []error{
		core.ErrCanceled, core.ErrNotFound, core.ErrClosed,
		ErrNotOwner, ErrShardFrozen, core.ErrInvalidQuery,
	}
	for _, sentinel := range cases {
		back := fromWireErr(toWireErr(sentinel))
		if !errors.Is(back, sentinel) {
			t.Errorf("%v did not survive the wire: got %v", sentinel, back)
		}
	}
	// An untyped error stays an error with its message.
	plain := errors.New("disk on fire")
	back := fromWireErr(toWireErr(plain))
	if back == nil || back.Error() == "" {
		t.Fatal("plain error lost")
	}
	if toWireErr(nil) != nil {
		t.Fatal("nil error should encode as nil")
	}
}

// TestNodeRejectsInvalidWireQuery: a node treats a query RPC as input from
// outside the process. Requests the wire structs can spell but the library
// rejects — a bounded graph kNN, a NaN radius, an unknown operation — come
// back as core.ErrInvalidQuery over the wire, without a panic, and the node keeps
// serving.
func TestNodeRejectsInvalidWireQuery(t *testing.T) {
	tc := startCluster(t, dataset.Words(300, 51), 4)
	p := tc.router.Placement()
	ctx := context.Background()
	q := tc.objs[0]
	wq := wireObj{ID: q.ID(), Data: q.AppendBinary(nil)}
	for node, shards := range p.ByOwner() {
		c := NewClient(p.Nodes[node])
		defer c.Close()
		for name, q := range map[string]core.Query{
			"bounded graph": {Op: core.OpKNNGraph, K: 5, Bounded: true},
			"NaN bound":     {Op: core.OpKNN, K: 5, Bounded: true, Bound: math.NaN()},
			"NaN radius":    {Op: core.OpRange, Radius: math.NaN()},
			"unknown op":    {Op: "scan", K: 5},
		} {
			var resp rpcQueryResp
			if err := c.Call(ctx, kQuery, rpcQueryReq{Shards: shards, Q: wq, Query: q}, &resp); err != nil {
				t.Fatalf("%s/%s: transport: %v", node, name, err)
			}
			if err := fromWireErr(resp.Err); !errors.Is(err, core.ErrInvalidQuery) {
				t.Fatalf("%s/%s: err = %v, want ErrInvalidQuery", node, name, err)
			}
			if len(resp.Results) != 0 {
				t.Fatalf("%s/%s: rejected request returned %d results", node, name, len(resp.Results))
			}
		}
		// The same connection still answers a well-formed request.
		var resp rpcQueryResp
		if err := c.Call(ctx, kQuery, rpcQueryReq{Shards: shards, Q: wq, Query: core.Query{Op: core.OpKNN, K: 5}}, &resp); err != nil || resp.Err != nil {
			t.Fatalf("%s: node stopped serving after invalid requests: %v %v", node, err, resp.Err)
		}
		if len(resp.Results) != 5 {
			t.Fatalf("%s: follow-up kNN returned %d results, want 5", node, len(resp.Results))
		}
	}
}

// TestNodeRejectsRetiredHintKind: the retired kinds stay reserved — 17
// carried the router-side planner's hint request, 1 and 2 the separate range
// and kNN requests kQuery replaced. A frame with one of them — an old
// router's — answers the unknown-kind error, and the connection keeps
// serving.
func TestNodeRejectsRetiredHintKind(t *testing.T) {
	const retiredRange, retiredKNN, retiredHint = 1, 2, kErr + 1
	tc := startCluster(t, dataset.Words(300, 53), 4)
	p := tc.router.Placement()
	ctx := context.Background()
	wq := wireObj{ID: tc.objs[0].ID(), Data: tc.objs[0].AppendBinary(nil)}
	for node, addr := range p.Nodes {
		c := NewClient(addr)
		defer c.Close()
		for kind, req := range map[byte]interface{}{
			retiredRange: struct {
				Shards []int
				Q      wireObj
				R      float64
			}{p.ShardsOf(node), wq, 2},
			retiredKNN: struct {
				Shards []int
				Q      wireObj
				K      int
			}{p.ShardsOf(node), wq, 5},
			retiredHint: struct{ Shards []int }{p.ShardsOf(node)},
		} {
			var resp errOnly
			if err := c.Call(ctx, kind, req, &resp); err != nil {
				t.Fatalf("%s: kind %d: transport: %v", node, kind, err)
			}
			want := fmt.Sprintf("unknown frame kind %d", kind)
			if err := fromWireErr(resp.Err); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: err = %v, want %q", node, err, want)
			}
		}
		var pong rpcPingResp
		if err := c.Call(ctx, kPing, rpcPingReq{}, &pong); err != nil || pong.Name != node {
			t.Fatalf("%s: node stopped serving after a retired-kind frame: %v %+v", node, err, pong)
		}
	}
}

// TestRingDeterministic: the same node set always yields the same owners,
// regardless of input order.
func TestRingDeterministic(t *testing.T) {
	a := RingOwners([]string{"n1", "n2", "n3"}, 16)
	b := RingOwners([]string{"n3", "n1", "n2"}, 16)
	for s := 0; s < 16; s++ {
		if a[s] != b[s] {
			t.Fatalf("shard %d: %s vs %s for permuted node lists", s, a[s], b[s])
		}
	}
}

// TestRingSpreads: with enough shards, every node owns some — the
// avalanche fix for FNV's clumping (see fnv64) keeps the ring usable.
func TestRingSpreads(t *testing.T) {
	owners := RingOwners([]string{"n1", "n2", "n3"}, 64)
	count := map[string]int{}
	for _, n := range owners {
		count[n]++
	}
	for _, n := range []string{"n1", "n2", "n3"} {
		if count[n] == 0 {
			t.Fatalf("node %s owns nothing across 64 shards: %v", n, count)
		}
	}
}

// TestRingIncremental: adding a node only moves shards TO the new node —
// no shard shuffles between pre-existing nodes (the consistent-hashing
// property that keeps rebalancing proportional to 1/n).
func TestRingIncremental(t *testing.T) {
	before := RingOwners([]string{"n1", "n2", "n3"}, 64)
	after := RingOwners([]string{"n1", "n2", "n3", "n4"}, 64)
	moved := 0
	for s := 0; s < 64; s++ {
		if after[s] != before[s] {
			if after[s] != "n4" {
				t.Fatalf("shard %d moved %s -> %s; only moves to the new node are allowed",
					s, before[s], after[s])
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("new node received nothing; ring not spreading")
	}
}

// TestNodeErrorUnwrap: AsNodeErrors digs NodeErrors out of joined error
// trees, and errors.Is reaches the wrapped cause.
func TestNodeErrorUnwrap(t *testing.T) {
	ne1 := &NodeError{Node: "n1", Addr: "a:1", Err: core.ErrCanceled}
	ne2 := &NodeError{Node: "n2", Addr: "a:2", Err: errors.New("boom")}
	joined := errors.Join(ne1, ne2)
	nes := AsNodeErrors(joined)
	if len(nes) != 2 || nes[0].Node != "n1" || nes[1].Node != "n2" {
		t.Fatalf("AsNodeErrors = %+v", nes)
	}
	if !errors.Is(joined, core.ErrCanceled) {
		t.Fatal("wrapped sentinel unreachable through the join")
	}
	if AsNodeErrors(nil) != nil {
		t.Fatal("nil should yield no node errors")
	}
}

// TestPlacementValidate rejects holes and unknown owners.
func TestPlacementValidate(t *testing.T) {
	p := &Placement{Version: 1, Shards: 2,
		Owners: map[int]string{0: "n1"},
		Nodes:  map[string]string{"n1": "a:1"}}
	if err := p.Validate(); err == nil {
		t.Fatal("shard without owner accepted")
	}
	p.Owners[1] = "ghost"
	if err := p.Validate(); err == nil {
		t.Fatal("owner without address accepted")
	}
	p.Nodes["ghost"] = "a:2"
	if err := p.Validate(); err != nil {
		t.Fatalf("valid placement rejected: %v", err)
	}
}
