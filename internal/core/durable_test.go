package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spbtree/internal/dataset"
	"spbtree/internal/metric"
	"spbtree/internal/sfc"
	"spbtree/internal/wal"
)

// allRadius comfortably exceeds the L2 diameter of [0,1]^5, so a range query
// with it returns the whole live set.
const allRadius = 3.0

// walFaultFS is a wal.FS that can fail a countdown of file fsyncs, simulating
// a crash in the window between a WAL write and its acknowledgement.
type walFaultFS struct {
	wal.OSFS
	failSyncs atomic.Int32
}

var errWALFault = errors.New("core_test: injected wal fsync fault")

func (f *walFaultFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	file, err := f.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &walFaultFile{File: file, fs: f}, nil
}

type walFaultFile struct {
	wal.File
	fs *walFaultFS
}

func (f *walFaultFile) Sync() error {
	if n := f.fs.failSyncs.Load(); n > 0 && f.fs.failSyncs.CompareAndSwap(n, n-1) {
		return errWALFault
	}
	return f.File.Sync()
}

// durableFixture tracks a durable tree alongside the oracle live-object map
// every acknowledged mutation updates.
type durableFixture struct {
	dir  string
	tree *Tree
	dist metric.DistanceFunc
	live map[uint64]metric.Object
}

func newDurableFixture(t *testing.T, n int, dopts DurableOptions) *durableFixture {
	t.Helper()
	dir := t.TempDir()
	objs := vectorSet(n, 5, 77)
	dist := metric.L2(5)
	tree, err := CreateDurable(dir, objs, Options{
		Distance: dist, Codec: metric.VectorCodec{Dim: 5},
		Seed: 7, Curve: sfc.ZOrder,
	}, dopts)
	if err != nil {
		t.Fatalf("CreateDurable: %v", err)
	}
	live := make(map[uint64]metric.Object, n)
	for _, o := range objs {
		live[o.ID()] = o
	}
	return &durableFixture{dir: dir, tree: tree, dist: dist, live: live}
}

func (fx *durableFixture) insert(t *testing.T, o metric.Object) {
	t.Helper()
	if err := fx.tree.Insert(o); err != nil {
		t.Fatalf("Insert %d: %v", o.ID(), err)
	}
	fx.live[o.ID()] = o
}

func (fx *durableFixture) delete(t *testing.T, o metric.Object) {
	t.Helper()
	if err := fx.tree.Delete(o); err != nil {
		t.Fatalf("Delete %d: %v", o.ID(), err)
	}
	delete(fx.live, o.ID())
}

func (fx *durableFixture) liveObjs() []metric.Object {
	objs := make([]metric.Object, 0, len(fx.live))
	for _, o := range fx.live {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].ID() < objs[j].ID() })
	return objs
}

func (fx *durableFixture) liveIDs() []uint64 {
	ids := make([]uint64, 0, len(fx.live))
	for id := range fx.live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// refTree builds a fresh non-durable tree over the current live set with the
// durable tree's exact mapping (pivots, quantization, curve), the "rebuilt
// from scratch" reference the acceptance criterion compares against.
func (fx *durableFixture) refTree(t *testing.T) *Tree {
	t.Helper()
	ref, err := Build(fx.liveObjs(), Options{
		Distance: fx.dist, Codec: metric.VectorCodec{Dim: 5},
		ShareMapping: fx.tree, Seed: 7,
	})
	if err != nil {
		t.Fatalf("build reference tree: %v", err)
	}
	t.Cleanup(func() { ref.Close() })
	return ref
}

func rangeResultMap(rs []Result) map[uint64]Result {
	out := make(map[uint64]Result, len(rs))
	for _, r := range rs {
		out[r.Object.ID()] = r
	}
	return out
}

// checkEquivalence runs every read entry point on the durable tree and
// demands byte-identical answers to the rebuilt reference — and
// identical compdists for range queries, where the verified set is order-free.
func (fx *durableFixture) checkEquivalence(t *testing.T, qs ...metric.Object) {
	t.Helper()
	ref := fx.refTree(t)
	dur := fx.tree
	const r, k = 0.45, 10

	for _, q := range qs {
		wantRes, wantQS, err := ref.Query(context.Background(), Query{Op: OpRange, Q: q, Radius: r, Timed: true})
		if err != nil {
			t.Fatal(err)
		}
		want := rangeResultMap(wantRes)
		wantKNN, err := ref.KNN(q, k)
		if err != nil {
			t.Fatal(err)
		}

		label := fmt.Sprintf("q=%d", q.ID())

		gotRes, gotQS, err := dur.Query(context.Background(), Query{Op: OpRange, Q: q, Radius: r, Timed: true})
		if err != nil {
			t.Fatal(err)
		}
		got := rangeResultMap(gotRes)
		if len(got) != len(want) {
			t.Fatalf("%s: range returned %d results, want %d", label, len(got), len(want))
		}
		for id, w := range want {
			g, ok := got[id]
			if !ok {
				t.Fatalf("%s: range missing id %d", label, id)
			}
			if g.Dist != w.Dist || g.Exact != w.Exact {
				t.Fatalf("%s: id %d: got (%v, exact=%v), want (%v, exact=%v)",
					label, id, g.Dist, g.Exact, w.Dist, w.Exact)
			}
		}
		if gotQS.Compdists != wantQS.Compdists {
			t.Fatalf("%s: range compdists = %d, reference = %d", label, gotQS.Compdists, wantQS.Compdists)
		}

		gotKNN, err := dur.KNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotKNN) != len(wantKNN) {
			t.Fatalf("%s: kNN returned %d, want %d", label, len(gotKNN), len(wantKNN))
		}
		for i := range wantKNN {
			if gotKNN[i].Object.ID() != wantKNN[i].Object.ID() || gotKNN[i].Dist != wantKNN[i].Dist {
				t.Fatalf("%s: kNN rank %d: got (%d, %v), want (%d, %v)", label, i,
					gotKNN[i].Object.ID(), gotKNN[i].Dist, wantKNN[i].Object.ID(), wantKNN[i].Dist)
			}
		}

		cnt, err := dur.RangeCount(q, r)
		if err != nil {
			t.Fatal(err)
		}
		if cnt != len(want) {
			t.Fatalf("%s: RangeCount = %d, want %d", label, cnt, len(want))
		}

		// The budgeted search has no rebuilt-tree analogue (its answer depends
		// on traversal order; TestBatchMatchesScalar pins it over a write
		// buffer against goldens): here it must stay within its budget and
		// answer with live objects at their true distances.
		approx, approxQS, err := dur.Query(context.Background(), Query{Op: OpKNNApprox, Q: q, K: k, MaxVerify: 25})
		if err != nil {
			t.Fatal(err)
		}
		if approxQS.Verified > 25 || len(approx) > k {
			t.Fatalf("%s: budgeted kNN verified %d candidates for %d results, budget 25, k %d", label, approxQS.Verified, len(approx), k)
		}
		for i, x := range approx {
			if o, ok := fx.live[x.Object.ID()]; !ok || fx.dist.Distance(q, o) != x.Dist {
				t.Fatalf("%s: budgeted kNN rank %d (id %d, d=%v) is not a live object at its distance", label, i, x.Object.ID(), x.Dist)
			}
		}

		// Incremental scan: the full ascending-distance sequence must match.
		wantIter := collectIter(t, ref.NearestIterWithin(q, r))
		gotIter := collectIter(t, dur.NearestIterWithin(q, r))
		if len(gotIter) != len(wantIter) {
			t.Fatalf("q=%d: iterator emitted %d, want %d", q.ID(), len(gotIter), len(wantIter))
		}
		for i := range wantIter {
			if gotIter[i] != wantIter[i] {
				t.Fatalf("q=%d: iterator position %d: got %+v, want %+v", q.ID(), i, gotIter[i], wantIter[i])
			}
		}

		// RangeIDs over everything doubles as a live-set identity check.
		ids, err := dur.RangeIDs(q, allRadius)
		if err != nil {
			t.Fatal(err)
		}
		wantIDs := fx.liveIDs()
		if len(ids) != len(wantIDs) {
			t.Fatalf("q=%d: live set has %d ids, want %d", q.ID(), len(ids), len(wantIDs))
		}
		for i := range wantIDs {
			if ids[i] != wantIDs[i] {
				t.Fatalf("q=%d: live id[%d] = %d, want %d", q.ID(), i, ids[i], wantIDs[i])
			}
		}
	}

	// Self-join equivalence: pair sets with exact distances must coincide.
	const eps = 0.3
	wantPairs, _, err := Join(context.Background(), ref, ref, eps)
	if err != nil {
		t.Fatal(err)
	}
	gotPairs, _, err := Join(context.Background(), dur, dur, eps)
	if err != nil {
		t.Fatal(err)
	}
	wantSet := joinPairMap(wantPairs)
	gotSet := joinPairMap(gotPairs)
	if len(gotSet) != len(wantSet) {
		t.Fatalf("self-join: %d pairs, want %d", len(gotSet), len(wantSet))
	}
	for key, d := range wantSet {
		gd, ok := gotSet[key]
		if !ok {
			t.Fatalf("self-join missing pair %v", key)
		}
		if gd != d {
			t.Fatalf("self-join pair %v: dist %v, want %v", key, gd, d)
		}
	}
}

type iterHit struct {
	id   uint64
	dist float64
}

func collectIter(t *testing.T, it *NearestIter) []iterHit {
	t.Helper()
	defer it.Close()
	var out []iterHit
	for {
		res, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, iterHit{res.Object.ID(), res.Dist})
	}
	if err := it.Err(); err != nil {
		t.Fatalf("iterator: %v", err)
	}
	return out
}

func joinPairMap(pairs []JoinPair) map[[2]uint64]float64 {
	out := make(map[[2]uint64]float64, len(pairs))
	for _, p := range pairs {
		out[[2]uint64{p.Q.ID(), p.O.ID()}] = p.Dist
	}
	return out
}

// standardMutations buffers inserts, deletes and cross-key upserts so the
// delta holds all three mutation shapes.
func (fx *durableFixture) standardMutations(t *testing.T) {
	t.Helper()
	extra := vectorSet(60, 5, 78)
	for i, o := range extra {
		v := o.(*metric.Vector)
		v.Id = uint64(10000 + i)
		fx.insert(t, v)
	}
	for i := 0; i < 40; i += 2 { // delete some base objects
		fx.delete(t, fx.live[uint64(i)])
	}
	for i := 1; i < 20; i += 2 { // upsert others with new coordinates
		nv := vectorSet(1, 5, int64(200+i))[0].(*metric.Vector)
		nv.Id = uint64(i)
		fx.insert(t, nv)
	}
	// Delete a buffered insert too: tombstone over a delta entry.
	fx.delete(t, fx.live[10001])
}

func (fx *durableFixture) queryPoints() []metric.Object {
	return []metric.Object{fx.live[3], fx.live[10002], vectorSet(1, 5, 999)[0]}
}

func TestDurableQueryEquivalence(t *testing.T) {
	fx := newDurableFixture(t, 400, DurableOptions{CompactThreshold: -1})
	defer fx.tree.Close()

	// Phase 1: everything still in the base generation, empty delta.
	fx.checkEquivalence(t, fx.live[3])

	// Phase 2: a populated write buffer with inserts, deletes and upserts.
	fx.standardMutations(t)
	if fx.tree.DeltaLen() == 0 {
		t.Fatal("mutations did not buffer")
	}
	// Sanity that queries actually crossed the merge path.
	_, qs, err := fx.tree.Query(context.Background(), Query{Op: OpRange, Q: fx.live[3], Radius: allRadius, Timed: true})
	if err != nil {
		t.Fatal(err)
	}
	if qs.DeltaCandidates == 0 || qs.TombstonesSkipped == 0 {
		t.Fatalf("delta merge not exercised: %+v", qs)
	}
	fx.checkEquivalence(t, fx.queryPoints()...)

	// Phase 3: after compaction the same answers must come from the new base.
	if err := fx.tree.CompactNow(); err != nil {
		t.Fatalf("CompactNow: %v", err)
	}
	if n := fx.tree.DeltaLen(); n != 0 {
		t.Fatalf("DeltaLen after compaction = %d", n)
	}
	if got := fx.tree.Len(); got != len(fx.live) {
		t.Fatalf("Len after compaction = %d, want %d", got, len(fx.live))
	}
	fx.checkEquivalence(t, fx.queryPoints()...)

	// Phase 4: mutations on top of the compacted generation.
	nv := vectorSet(1, 5, 300)[0].(*metric.Vector)
	nv.Id = 20000
	fx.insert(t, nv)
	fx.delete(t, fx.live[5])
	fx.checkEquivalence(t, fx.live[3], nv)
}

// VerifyIntegrity must account for the write buffer: buffered inserts are
// live objects with no leaf entry, shadowed base records are leaf entries
// that are not live. A populated delta is healthy, not a counter corruption.
func TestDurableVerifyWithDelta(t *testing.T) {
	fx := newDurableFixture(t, 200, DurableOptions{CompactThreshold: -1})
	defer fx.tree.Close()
	if err := fx.tree.VerifyIntegrity(); err != nil {
		t.Fatalf("pristine tree: %v", err)
	}
	fx.standardMutations(t)
	if fx.tree.DeltaLen() == 0 {
		t.Fatal("mutations did not buffer")
	}
	if err := fx.tree.VerifyIntegrity(); err != nil {
		t.Fatalf("populated delta: %v", err)
	}
	if err := fx.tree.CompactNow(); err != nil {
		t.Fatalf("CompactNow: %v", err)
	}
	if err := fx.tree.VerifyIntegrity(); err != nil {
		t.Fatalf("after compaction: %v", err)
	}
}

func TestDurableRecoveryAckedPrefix(t *testing.T) {
	fx := newDurableFixture(t, 200, DurableOptions{CompactThreshold: -1})
	fx.standardMutations(t)
	wantIDs := fx.liveIDs()

	// Crash: abandon the tree without Close. Every mutation above was
	// acknowledged, so reopening must recover all of them from the WAL.
	re, err := OpenDurable(fx.dir, LoadOptions{Distance: fx.dist, Codec: metric.VectorCodec{Dim: 5}},
		DurableOptions{CompactThreshold: -1})
	if err != nil {
		t.Fatalf("OpenDurable after crash: %v", err)
	}
	defer re.Close()
	if re.DeltaLen() == 0 {
		t.Fatal("recovery replayed nothing into the write buffer")
	}
	ids, err := re.RangeIDs(fx.liveObjs()[0], allRadius)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(wantIDs) {
		t.Fatalf("recovered live set has %d objects, want %d", len(ids), len(wantIDs))
	}
	for i := range wantIDs {
		if ids[i] != wantIDs[i] {
			t.Fatalf("recovered id[%d] = %d, want %d", i, ids[i], wantIDs[i])
		}
	}

	// The recovered tree must keep accepting writes with no LSN confusion.
	nv := vectorSet(1, 5, 400)[0].(*metric.Vector)
	nv.Id = 30000
	if err := re.Insert(nv); err != nil {
		t.Fatalf("Insert after recovery: %v", err)
	}
}

func TestDurableRecoveryTornWALTail(t *testing.T) {
	fx := newDurableFixture(t, 150, DurableOptions{CompactThreshold: -1})
	for i := 0; i < 10; i++ {
		nv := vectorSet(1, 5, int64(500+i))[0].(*metric.Vector)
		nv.Id = uint64(40000 + i)
		fx.insert(t, nv)
	}
	wantIDs := fx.liveIDs()

	// Crash plus a torn write: garbage bytes past the last durable frame.
	segs, err := wal.Segments(filepath.Join(fx.dir, WALDir), nil)
	if err != nil || len(segs) == 0 {
		t.Fatalf("wal segments: %v (%d)", err, len(segs))
	}
	segPath := filepath.Join(fx.dir, WALDir, segs[len(segs)-1].Name)
	f, err := os.OpenFile(segPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x37, 0xff}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := OpenDurable(fx.dir, LoadOptions{Distance: fx.dist, Codec: metric.VectorCodec{Dim: 5}},
		DurableOptions{CompactThreshold: -1})
	if err != nil {
		t.Fatalf("OpenDurable over torn tail: %v", err)
	}
	defer re.Close()
	ids, err := re.RangeIDs(fx.liveObjs()[0], allRadius)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(wantIDs) {
		t.Fatalf("torn-tail recovery: %d objects, want %d", len(ids), len(wantIDs))
	}
}

func TestDurableUnackedWriteNotRecovered(t *testing.T) {
	ffs := &walFaultFS{}
	dir := t.TempDir()
	objs := vectorSet(150, 5, 81)
	dist := metric.L2(5)
	tree, err := CreateDurable(dir, objs, Options{
		Distance: dist, Codec: metric.VectorCodec{Dim: 5}, Seed: 7,
	}, DurableOptions{CompactThreshold: -1, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}

	mk := func(id uint64, seed int64) *metric.Vector {
		v := vectorSet(1, 5, seed)[0].(*metric.Vector)
		v.Id = id
		return v
	}
	if err := tree.Insert(mk(9001, 601)); err != nil {
		t.Fatal(err)
	}
	// The commit fsync fails: the write must be rejected, rolled back on disk,
	// and invisible after recovery — an unacknowledged write is a lost write.
	ffs.failSyncs.Store(1)
	if err := tree.Insert(mk(9002, 602)); err == nil {
		t.Fatal("Insert succeeded despite a failed WAL fsync")
	}
	if _, err := tree.Get(mk(9002, 602)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("failed insert is visible in-memory: %v", err)
	}
	if err := tree.Insert(mk(9003, 603)); err != nil {
		t.Fatalf("Insert after rollback: %v", err)
	}

	// Crash (abandon) and reopen with a healthy FS.
	re, err := OpenDurable(dir, LoadOptions{Distance: dist, Codec: metric.VectorCodec{Dim: 5}},
		DurableOptions{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := re.Get(mk(9001, 601)); err != nil {
		t.Fatalf("acked insert 9001 lost: %v", err)
	}
	if _, err := re.Get(mk(9003, 603)); err != nil {
		t.Fatalf("acked insert 9003 lost: %v", err)
	}
	if _, err := re.Get(mk(9002, 602)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unacked insert 9002 resurrected: %v", err)
	}
}

func TestDurableCrashMidCompaction(t *testing.T) {
	errBoom := errors.New("injected compaction crash")
	for _, when := range []string{"before-current", "after-current"} {
		t.Run(when, func(t *testing.T) {
			fx := newDurableFixture(t, 200, DurableOptions{CompactThreshold: -1})
			fx.standardMutations(t)
			wantIDs := fx.liveIDs()

			if when == "before-current" {
				fx.tree.dur.hookBeforeCurrent = func() error { return errBoom }
			} else {
				fx.tree.dur.hookAfterCurrent = func() error { return errBoom }
			}
			if err := fx.tree.CompactNow(); !errors.Is(err, errBoom) {
				t.Fatalf("CompactNow returned %v, want the injected crash", err)
			}

			// The in-memory tree must keep serving the exact live set.
			ids, err := fx.tree.RangeIDs(fx.liveObjs()[0], allRadius)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != len(wantIDs) {
				t.Fatalf("post-crash in-memory live set: %d, want %d", len(ids), len(wantIDs))
			}

			// Crash the process too (abandon), then recover. Depending on the
			// window this lands in the old or the new generation — both must
			// produce the identical live set.
			re, err := OpenDurable(fx.dir, LoadOptions{Distance: fx.dist, Codec: metric.VectorCodec{Dim: 5}},
				DurableOptions{CompactThreshold: -1})
			if err != nil {
				t.Fatalf("OpenDurable after mid-compaction crash: %v", err)
			}
			defer re.Close()
			ids, err = re.RangeIDs(fx.liveObjs()[0], allRadius)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != len(wantIDs) {
				t.Fatalf("recovered live set: %d, want %d", len(ids), len(wantIDs))
			}
			for i := range wantIDs {
				if ids[i] != wantIDs[i] {
					t.Fatalf("recovered id[%d] = %d, want %d", i, ids[i], wantIDs[i])
				}
			}

			// Recovery must have swept the orphan generation: exactly one left.
			ents, err := os.ReadDir(fx.dir)
			if err != nil {
				t.Fatal(err)
			}
			gens := 0
			for _, e := range ents {
				if e.IsDir() && len(e.Name()) > 4 && e.Name()[:4] == genPrefix {
					gens++
				}
			}
			if gens != 1 {
				t.Fatalf("%d generations survive recovery, want 1", gens)
			}

			// And the recovered tree can compact cleanly.
			if err := re.CompactNow(); err != nil {
				t.Fatalf("CompactNow after recovery: %v", err)
			}
			if got := re.Len(); got != len(wantIDs) {
				t.Fatalf("Len after recovered compaction = %d, want %d", got, len(wantIDs))
			}
		})
	}
}

func TestDurableCompactionRetryAfterFailure(t *testing.T) {
	errBoom := errors.New("transient publish failure")
	fx := newDurableFixture(t, 150, DurableOptions{CompactThreshold: -1})
	defer fx.tree.Close()
	fx.standardMutations(t)

	fx.tree.dur.hookBeforeCurrent = func() error { return errBoom }
	if err := fx.tree.CompactNow(); !errors.Is(err, errBoom) {
		t.Fatalf("CompactNow = %v, want injected failure", err)
	}
	if fx.tree.DeltaLen() == 0 {
		t.Fatal("failed compaction discarded the write buffer")
	}
	fx.tree.dur.hookBeforeCurrent = nil
	if err := fx.tree.CompactNow(); err != nil {
		t.Fatalf("retried CompactNow: %v", err)
	}
	if fx.tree.DeltaLen() != 0 {
		t.Fatal("retried compaction left the buffer populated")
	}
	fx.checkEquivalence(t, fx.queryPoints()...)
}

func TestDurableClosedEntryPoints(t *testing.T) {
	fx := newDurableFixture(t, 120, DurableOptions{CompactThreshold: -1})
	q := fx.live[0]
	if err := fx.tree.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := fx.tree.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}

	assertClosed := func(op string, err error) {
		t.Helper()
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("%s on closed tree = %v, want ErrClosed", op, err)
		}
	}
	assertClosed("Insert", fx.tree.Insert(q))
	assertClosed("Delete", fx.tree.Delete(q))
	_, err := fx.tree.RangeQuery(q, 0.4)
	assertClosed("RangeQuery", err)
	_, _, err = fx.tree.Query(context.Background(), Query{Op: OpRange, Q: q, Radius: 0.4, Timed: true})
	assertClosed("Query(range)", err)
	_, err = fx.tree.KNN(q, 5)
	assertClosed("KNN", err)
	_, _, err = fx.tree.Query(context.Background(), Query{Op: OpKNNApprox, Q: q, K: 5, MaxVerify: 10})
	assertClosed("Query(knn_approx)", err)
	_, err = fx.tree.RangeCount(q, 0.4)
	assertClosed("RangeCount", err)
	_, err = fx.tree.RangeIDs(q, 0.4)
	assertClosed("RangeIDs", err)
	_, err = fx.tree.Get(q)
	assertClosed("Get", err)
	assertClosed("CompactNow", fx.tree.CompactNow())
	_, _, err = Join(context.Background(), fx.tree, fx.tree, 0.3)
	assertClosed("Join", err)
	it := fx.tree.NearestIter(q)
	if _, ok := it.Next(); ok {
		t.Fatal("closed-tree iterator yielded a result")
	}
	assertClosed("NearestIter", it.Err())
}

func TestDurableCloseStopsGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	fx := newDurableFixture(t, 100, DurableOptions{})
	nv := vectorSet(1, 5, 700)[0].(*metric.Vector)
	nv.Id = 50000
	fx.insert(t, nv)
	if err := fx.tree.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if err := fx.tree.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The WAL committer and the compactor must both have exited.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Close: %d, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestDurableIteratorCloseUnblocksMutators(t *testing.T) {
	fx := newDurableFixture(t, 120, DurableOptions{CompactThreshold: -1})
	defer fx.tree.Close()

	it := fx.tree.NearestIter(fx.live[0])
	if _, ok := it.Next(); !ok {
		t.Fatal("iterator yielded nothing")
	}
	it.Close()

	// With the iterator's read lock released, a mutator must get through; run
	// it under a watchdog so a regression fails instead of hanging the suite.
	done := make(chan error, 1)
	go func() {
		nv := vectorSet(1, 5, 800)[0].(*metric.Vector)
		nv.Id = 60000
		done <- fx.tree.Insert(nv)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Insert after iterator Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Insert deadlocked behind a closed iterator")
	}
}

// TestDurableWriteStress hammers the durable tree with concurrent writers,
// deleters, readers and compactions; run with -race it doubles as the write
// path's data-race check. Each goroutine owns a disjoint ID range so the
// final oracle needs no cross-goroutine ordering.
func TestDurableWriteStress(t *testing.T) {
	fx := newDurableFixture(t, 200, DurableOptions{CompactThreshold: 50})
	defer fx.tree.Close()
	tree := fx.tree

	const (
		writers      = 4
		perWriter    = 40
		deleters     = 2
		perDeleter   = 20
		readerRounds = 25
	)
	var wg sync.WaitGroup
	insertErr := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(9000 + w)))
			for i := 0; i < perWriter; i++ {
				coords := make([]float64, 5)
				for j := range coords {
					coords[j] = rng.Float64()
				}
				v := metric.NewVector(uint64(100000+w*perWriter+i), coords)
				if err := tree.Insert(v); err != nil {
					insertErr[w] = err
					return
				}
			}
		}(w)
	}
	deleteErr := make([]error, deleters)
	for d := 0; d < deleters; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for i := 0; i < perDeleter; i++ {
				// Disjoint base IDs: deleter d owns [d*perDeleter, (d+1)*perDeleter).
				id := uint64(d*perDeleter + i)
				if err := tree.Delete(fx.live[id]); err != nil {
					deleteErr[d] = err
					return
				}
			}
		}(d)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			q := fx.live[uint64(150+r)]
			for i := 0; i < readerRounds; i++ {
				if _, err := tree.RangeQuery(q, 0.4); err != nil {
					t.Errorf("reader range: %v", err)
					return
				}
				if _, err := tree.KNN(q, 5); err != nil {
					t.Errorf("reader knn: %v", err)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := tree.CompactNow(); err != nil {
				t.Errorf("concurrent CompactNow: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	for w, err := range insertErr {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	for d, err := range deleteErr {
		if err != nil {
			t.Fatalf("deleter %d: %v", d, err)
		}
	}

	// Fold the oracle: all stress inserts acked, all stress deletes acked.
	for w := 0; w < writers; w++ {
		rng := rand.New(rand.NewSource(int64(9000 + w)))
		for i := 0; i < perWriter; i++ {
			coords := make([]float64, 5)
			for j := range coords {
				coords[j] = rng.Float64()
			}
			fx.live[uint64(100000+w*perWriter+i)] = metric.NewVector(uint64(100000+w*perWriter+i), coords)
		}
	}
	for id := uint64(0); id < deleters*perDeleter; id++ {
		delete(fx.live, id)
	}

	if err := tree.CompactNow(); err != nil {
		t.Fatal(err)
	}
	wantIDs := fx.liveIDs()
	ids, err := tree.RangeIDs(fx.liveObjs()[0], allRadius)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(wantIDs) {
		t.Fatalf("post-stress live set: %d objects, want %d", len(ids), len(wantIDs))
	}
	for i := range wantIDs {
		if ids[i] != wantIDs[i] {
			t.Fatalf("post-stress id[%d] = %d, want %d", i, ids[i], wantIDs[i])
		}
	}
	if got := tree.Len(); got != len(wantIDs) {
		t.Fatalf("post-stress Len = %d, want %d", got, len(wantIDs))
	}

	// Survive a clean restart with the same contents.
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(fx.dir, LoadOptions{Distance: fx.dist, Codec: metric.VectorCodec{Dim: 5}},
		DurableOptions{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	ids, err = re.RangeIDs(fx.liveObjs()[0], allRadius)
	if err != nil {
		re.Close()
		t.Fatal(err)
	}
	if len(ids) != len(wantIDs) {
		re.Close()
		t.Fatalf("restarted live set: %d objects, want %d", len(ids), len(wantIDs))
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableWriteConservation: a mixed read/write workload conserves the
// live set. Workers interleave warm kNN queries with delete/re-insert toggles
// of the same IDs (each over a private slice of the objects, so no two race
// on one ID) while the threshold compaction runs underneath; every operation
// must succeed, and once the deleted objects are restored and the delta is
// folded down with CompactNow, the live count is the dataset's cardinality —
// a lost or duplicated write shows up as a different count.
func TestDurableWriteConservation(t *testing.T) {
	ds := dataset.Words(600, 5)
	tree, err := CreateDurable(t.TempDir(), ds.Objects,
		Options{Distance: ds.Distance, Codec: ds.Codec, Seed: 5}, DurableOptions{CompactThreshold: 40})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	const workers, perWorker = 4, 60
	pool := ds.Objects[:len(ds.Objects)/5]
	for _, writePct := range []int{5, 50} {
		deleted := make([][]metric.Object, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(writePct*100 + w)))
				mine := pool[w*len(pool)/workers : (w+1)*len(pool)/workers]
				gone := make([]bool, len(mine))
				next := 0
				for i := 0; i < perWorker && errs[w] == nil; i++ {
					if rng.Intn(100) >= writePct {
						_, errs[w] = tree.KNN(ds.Objects[(w*perWorker+i)%len(ds.Objects)], 8)
						continue
					}
					j := next % len(mine)
					next++
					if gone[j] {
						errs[w] = tree.Insert(mine[j])
					} else {
						errs[w] = tree.Delete(mine[j])
					}
					gone[j] = !gone[j]
				}
				for j, g := range gone {
					if g {
						deleted[w] = append(deleted[w], mine[j])
					}
				}
			}(w)
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("%d%% writes: worker %d: %v", writePct, w, err)
			}
		}
		for _, objs := range deleted {
			for _, o := range objs {
				if err := tree.Insert(o); err != nil {
					t.Fatalf("%d%% writes: restore %d: %v", writePct, o.ID(), err)
				}
			}
		}
		if err := tree.CompactNow(); err != nil {
			t.Fatalf("%d%% writes: CompactNow: %v", writePct, err)
		}
		if got := tree.Len(); got != len(ds.Objects) {
			t.Fatalf("%d%% writes: %d live objects after restore and compaction, want %d — a write was lost or duplicated",
				writePct, got, len(ds.Objects))
		}
	}
}
