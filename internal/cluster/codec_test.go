package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"spbtree/internal/core"
)

// freshFrame is a frame as one gob encoder per frame writes it — the wire
// format the cached codec must reproduce byte for byte.
func freshFrame(t testing.TB, reqID uint64, kind byte, payload interface{}) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(make([]byte, frameHeaderLen))
	if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	binary.BigEndian.PutUint32(b[0:4], uint32(len(b)-frameHeaderLen))
	binary.BigEndian.PutUint64(b[4:12], reqID)
	b[12] = kind
	return b
}

// cachedFrame is the frame writeFrame writes.
func cachedFrame(t testing.TB, reqID uint64, kind byte, payload interface{}) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, new(sync.Mutex), reqID, kind, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// freshDecode decodes payload with a new gob decoder, the reference the
// pooled decoders must agree with.
func freshDecode(payload []byte, out interface{}) error {
	return gob.NewDecoder(bytes.NewReader(payload)).Decode(out)
}

// sameValue reports whether a and b are equal: DeepEqual, or the same fresh
// gob encoding (a NaN is not DeepEqual to itself, but its bits encode alike).
func sameValue(a, b interface{}) bool {
	if reflect.DeepEqual(a, b) {
		return true
	}
	var ea, eb bytes.Buffer
	return gob.NewEncoder(&ea).Encode(a) == nil && gob.NewEncoder(&eb).Encode(b) == nil &&
		bytes.Equal(ea.Bytes(), eb.Bytes())
}

// isolateCaches removes the encoder and decoder cache entries of the given
// payload types for the rest of the test and puts back what was there when
// it ends, so each test leaves the process-wide caches as it found them.
func isolateCaches(t testing.TB, types ...reflect.Type) {
	for _, rt := range types {
		for _, c := range []struct {
			m   *sync.Map
			key reflect.Type
		}{{&encoders, rt}, {&decoders, reflect.PointerTo(rt)}} {
			c := c
			old, had := c.m.LoadAndDelete(c.key)
			t.Cleanup(func() {
				if had {
					c.m.Store(c.key, old)
				} else {
					c.m.Delete(c.key)
				}
			})
		}
	}
}

// kQueryPair is one kNN request and its k = 10 answer.
func kQueryPair() (rpcQueryReq, rpcQueryResp) {
	req := rpcQueryReq{
		Shards:     []int{0, 3, 5},
		Q:          wireObj{ID: 42, Data: []byte("neighbourhood")},
		Query:      core.Query{Op: core.OpKNN, K: 10, Timed: true},
		DeadlineUS: 250000,
	}
	resp := rpcQueryResp{Stats: core.QueryStats{Op: core.OpKNN, NodesRead: 12, EntriesScanned: 340,
		Verified: 57, Compdists: 62, DataPA: 9, Results: 10, Elapsed: 800 * time.Microsecond,
		Plan: core.PlanInfo{ShardsTotal: 3, Staged: true}}}
	for i := 0; i < 10; i++ {
		resp.Results = append(resp.Results, wireResult{ID: uint64(1000 + i),
			Data: []byte(fmt.Sprintf("neighbour%02d", i)), Dist: float64(i) / 2, Exact: true})
	}
	return req, resp
}

// wireSamples returns every request and response struct and errOnly, each
// zero-valued and populated.
func wireSamples() []interface{} {
	req, resp := kQueryPair()
	we := &wireErr{Code: ecFrozen, Msg: "shard 3 frozen"}
	return []interface{}{
		rpcQueryReq{}, req,
		rpcQueryResp{}, resp,
		rpcQueryResp{Pairs: []core.IDPair{{QID: 1, OID: 2, Dist: 0.5}, {QID: 1, OID: 9, Dist: 1}},
			Stats: core.QueryStats{Op: core.OpJoin, ListEvictions: 4}, Err: we},
		rpcJoinReq{}, rpcJoinReq{QShards: []int{1, 2}, OShards: []shardRef{{Shard: 1}, {Shard: 4, Addr: "127.0.0.1:19002"}},
			Eps: 1.5, DeadlineUS: 9},
		rpcMutateReq{}, rpcMutateReq{Shard: 3, Obj: wireObj{ID: 7, Data: []byte("zebra")}, Delete: true},
		rpcMutateResp{}, rpcMutateResp{Objects: 300, Err: we},
		rpcStatsReq{}, rpcStatsReq{},
		rpcStatsResp{}, rpcStatsResp{Stats: NodeStats{Name: "n2", Shards: []ShardStats{
			{ID: 1, Objects: 100, Delta: 3, StorageBytes: 1 << 20}, {ID: 4, Objects: 90, Frozen: true}}}},
		rpcExportReq{}, rpcExportReq{Shard: 2, DeadlineUS: 5},
		rpcExportResp{}, rpcExportResp{Objs: []wireObj{{ID: 1, Data: []byte("a")}, {ID: 2, Data: []byte("bc")}}},
		rpcFreezeReq{}, rpcFreezeReq{Shard: 6, On: true},
		rpcFreezeResp{}, rpcFreezeResp{Err: we},
		rpcListFilesReq{}, rpcListFilesReq{Shard: 6},
		rpcListFilesResp{}, rpcListFilesResp{Paths: []string{"gen-1/index.pages", "wal/000001.log"}, Sizes: []int64{4096, 77}},
		rpcReadFileReq{}, rpcReadFileReq{Shard: 6, Path: "wal/000001.log", Off: 4096, Len: 1 << 16},
		rpcReadFileResp{}, rpcReadFileResp{Data: []byte{0, 1, 2, 255}, EOF: true},
		rpcInstallReq{}, rpcInstallReq{Shard: 6, Path: "gen-1/data.pages", Data: []byte("chunk"), First: true},
		rpcInstallResp{}, rpcInstallResp{Err: we},
		rpcPingReq{}, rpcPingReq{},
		rpcPingResp{}, rpcPingResp{Name: "n1"},
		errOnly{}, errOnly{Err: we},
	}
}

// foreignQueryResp stands in for rpcQueryResp as a node built from other
// code declares it: the same field names in another order, plus one field
// this build does not know.
type foreignQueryResp struct {
	Err     *wireErr
	Note    string
	Pairs   []core.IDPair
	Stats   core.QueryStats
	Results []wireResult
}

// TestFrameBytesMatchFreshEncoder: the cached codec changes nothing on the
// wire. For every message struct, zero and populated, writeFrame's bytes
// equal a fresh encoder's on the first, second and nth frame of the type,
// and a fresh encoder's frame decodes through the pooled decoders to what a
// fresh decoder makes of it. A foreign struct's payload decodes by field
// name under a descriptor entry of its own.
func TestFrameBytesMatchFreshEncoder(t *testing.T) {
	for i, v := range wireSamples() {
		rt := reflect.TypeOf(v)
		isolateCaches(t, rt)
		want := freshFrame(t, uint64(i), kQuery, v)
		for n := 1; n <= 5; n++ {
			if got := cachedFrame(t, uint64(i), kQuery, v); !bytes.Equal(got, want) {
				t.Fatalf("%T %+v: frame %d differs from a fresh encoder's:\n got %x\nwant %x", v, v, n, got, want)
			}
		}
		payload := want[frameHeaderLen:]
		ref := reflect.New(rt)
		if err := freshDecode(payload, ref.Interface()); err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= 3; n++ {
			got := reflect.New(rt)
			if err := decodePayload(payload, got.Interface()); err != nil {
				t.Fatalf("%T: decode %d: %v", v, n, err)
			}
			if !reflect.DeepEqual(got.Interface(), ref.Interface()) {
				t.Fatalf("%T: decode %d = %+v, fresh decoder %+v", v, n, got.Elem(), ref.Elem())
			}
		}
	}

	_, resp := kQueryPair()
	native := freshFrame(t, 1, kQuery, resp)[frameHeaderLen:]
	foreign := freshFrame(t, 1, kQuery, foreignQueryResp{Note: "from a newer node", Pairs: resp.Pairs,
		Stats: resp.Stats, Results: resp.Results})[frameHeaderLen:]
	var ref rpcQueryResp
	if err := freshDecode(foreign, &ref); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, resp) {
		t.Fatalf("fresh decoder read the foreign payload as %+v", ref)
	}
	for n := 1; n <= 3; n++ {
		var got rpcQueryResp
		if err := decodePayload(foreign, &got); err != nil {
			t.Fatalf("foreign decode %d: %v", n, err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("foreign decode %d = %+v, fresh decoder %+v", n, got, ref)
		}
	}
	td, _ := decoders.Load(reflect.TypeOf(&ref))
	nd, fd := native[:descriptorLen(native)], foreign[:descriptorLen(foreign)]
	if bytes.Equal(nd, fd) {
		t.Fatal("foreign and native payloads share a descriptor")
	}
	if td.(*typeDecoders).find(nd) == nil || td.(*typeDecoders).find(fd) == nil {
		t.Fatal("native and foreign descriptors do not each have a decoder pool")
	}
}

// TestFrameEncodeErrorMatchesFreshEncoder: a payload gob cannot encode fails
// writeFrame, on every attempt, as it fails a fresh encoder, and writes
// nothing.
func TestFrameEncodeErrorMatchesFreshEncoder(t *testing.T) {
	type noFields struct{ c chan int }
	type funcField struct{ F func() }
	for _, v := range []interface{}{nil, noFields{}, funcField{F: func() {}}} {
		fresh := gob.NewEncoder(new(bytes.Buffer)).Encode(v)
		if fresh == nil {
			t.Fatalf("%T: a fresh encoder accepted it", v)
		}
		for n := 1; n <= 2; n++ {
			var conn bytes.Buffer
			err := writeFrame(&conn, new(sync.Mutex), 1, kPing, v)
			if err == nil || conn.Len() != 0 {
				t.Fatalf("%T: attempt %d: err %v, %d bytes written", v, n, err, conn.Len())
			}
			if !strings.Contains(err.Error(), fresh.Error()) {
				t.Fatalf("%T: attempt %d: err %q, a fresh encoder's %q", v, n, err, fresh)
			}
		}
	}
}

// TestDescriptorCacheBounded: a target type keeps at most maxDescriptors
// decoder pools; a payload with one more descriptor still decodes, through a
// fresh decoder.
func TestDescriptorCacheBounded(t *testing.T) {
	isolateCaches(t, reflect.TypeOf(rpcPingResp{}))
	// Each payload's struct type has a field of its own, so each has a
	// descriptor of its own; all of them carry Name.
	var payloads [][]byte
	for i := 0; i < maxDescriptors+2; i++ {
		rt := reflect.StructOf([]reflect.StructField{
			{Name: "Name", Type: reflect.TypeOf("")},
			{Name: fmt.Sprintf("Extra%d", i), Type: reflect.TypeOf(0)},
		})
		v := reflect.New(rt).Elem()
		v.Field(0).SetString("a")
		v.Field(1).SetInt(int64(i + 1))
		payloads = append(payloads, freshFrame(t, 0, kPing, v.Interface())[frameHeaderLen:])
	}
	for round := 0; round < 2; round++ {
		for i, p := range payloads {
			var got rpcPingResp
			if err := decodePayload(p, &got); err != nil || got.Name != "a" {
				t.Fatalf("payload %d: %+v %v", i, got, err)
			}
		}
	}
	td, _ := decoders.Load(reflect.TypeOf(&rpcPingResp{}))
	if n := len(td.(*typeDecoders).pools); n != maxDescriptors {
		t.Fatalf("%d decoder pools for one type, want the bound %d", n, maxDescriptors)
	}
}

// TestFrameCodecConcurrent: many goroutines encode and decode mixed types
// through the shared encoder and decoder pools at once; every frame is a
// fresh encoder's bytes and decodes to a fresh decoder's value. Run under
// -race.
func TestFrameCodecConcurrent(t *testing.T) {
	samples := wireSamples()
	frames := make([][]byte, len(samples))
	refs := make([]interface{}, len(samples))
	for i, v := range samples {
		frames[i] = freshFrame(t, uint64(i), kQuery, v)
		ref := reflect.New(reflect.TypeOf(v)).Interface()
		if err := freshDecode(frames[i][frameHeaderLen:], ref); err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	const goroutines, rounds = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var conn bytes.Buffer
			var mu sync.Mutex
			for r := 0; r < rounds; r++ {
				i := (g*7 + r*3) % len(samples)
				conn.Reset()
				if err := writeFrame(&conn, &mu, uint64(i), kQuery, samples[i]); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(conn.Bytes(), frames[i]) {
					errs <- fmt.Errorf("%T: frame differs from a fresh encoder's", samples[i])
					return
				}
				_, _, payload, err := readFrame(&conn)
				if err != nil {
					errs <- err
					return
				}
				got := reflect.New(reflect.TypeOf(samples[i])).Interface()
				if err := decodePayload(payload, got); err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, refs[i]) {
					errs <- fmt.Errorf("%T: decoded %+v, want %+v", samples[i], got, refs[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// FuzzDecodePayload: for arbitrary bytes the pooled decoders agree with a
// fresh decoder — both fail, or both succeed with the same value — and a
// valid frame decoded afterwards still comes out right, so no decoder that
// failed went back to a pool.
func FuzzDecodePayload(f *testing.F) {
	req, resp := kQueryPair()
	valid := freshFrame(f, 1, kQuery, resp)[frameHeaderLen:]
	isolateCaches(f, reflect.TypeOf(req), reflect.TypeOf(resp), reflect.TypeOf(errOnly{}))
	for _, v := range []interface{}{req, resp, errOnly{Err: &wireErr{Msg: "boom"}}, rpcQueryResp{},
		foreignQueryResp{Note: "x", Results: resp.Results[:2]}} {
		f.Add(freshFrame(f, 1, kQuery, v)[frameHeaderLen:])
	}
	f.Add(valid[:len(valid)-3])
	f.Add(append(append([]byte(nil), valid...), valid...))
	f.Add([]byte{})
	f.Add([]byte{0x03, 0xff, 0x80, 0x00})
	targets := []func() interface{}{
		func() interface{} { return new(rpcQueryReq) },
		func() interface{} { return new(rpcQueryResp) },
		func() interface{} { return new(errOnly) },
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, newOut := range targets {
			got, want := newOut(), newOut()
			errGot, errWant := decodePayload(payload, got), freshDecode(payload, want)
			if (errGot == nil) != (errWant == nil) {
				t.Fatalf("%T: pooled decode err = %v, fresh decoder err = %v", got, errGot, errWant)
			}
			if errGot == nil && !sameValue(got, want) {
				t.Fatalf("%T: pooled decode %+v, fresh decoder %+v", got, got, want)
			}
		}
		var after rpcQueryResp
		if err := decodePayload(valid, &after); err != nil || !reflect.DeepEqual(after, resp) {
			t.Fatalf("valid frame after the input: %+v, %v", after, err)
		}
	})
}

// TestDescriptorLen: the split matches gob's framing on what a fresh
// encoder writes, and rejects what is not well framed.
func TestDescriptorLen(t *testing.T) {
	_, resp := kQueryPair()
	payload := freshFrame(t, 1, kQuery, resp)[frameHeaderLen:]
	n := descriptorLen(payload)
	if n <= 0 {
		t.Fatalf("descriptorLen = %d on a fresh encoder's payload", n)
	}
	// What follows the descriptor is exactly one value message.
	count, w := gobUint(payload[n:])
	if w == 0 || n+w+int(count) != len(payload) {
		t.Fatalf("descriptor %d bytes, then a %d-byte message in %d bytes", n, count, len(payload))
	}
	for _, bad := range [][]byte{nil, {0x00}, {0x05, 0x01}, {0xf7}, {0x81}, payload[:n]} {
		if got := descriptorLen(bad); got != -1 {
			t.Errorf("descriptorLen(%x) = %d, want -1", bad, got)
		}
	}
}

// BenchmarkFrameRoundTrip is one kQuery request and its k = 10 response,
// each written with writeFrame, read back with readFrame and decoded with
// decodePayload; fresh-gob is the same round trip with one gob encoder and
// one decoder per frame.
func BenchmarkFrameRoundTrip(b *testing.B) {
	req, resp := kQueryPair()
	var mu sync.Mutex
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		var conn bytes.Buffer
		for i := 0; i < b.N; i++ {
			var gotReq rpcQueryReq
			var gotResp rpcQueryResp
			for _, m := range []struct{ in, out interface{} }{{req, &gotReq}, {resp, &gotResp}} {
				if err := writeFrame(&conn, &mu, 1, kQuery, m.in); err != nil {
					b.Fatal(err)
				}
				_, _, payload, err := readFrame(&conn)
				if err != nil {
					b.Fatal(err)
				}
				if err := decodePayload(payload, m.out); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("fresh-gob", func(b *testing.B) {
		b.ReportAllocs()
		var conn bytes.Buffer
		for i := 0; i < b.N; i++ {
			var gotReq rpcQueryReq
			var gotResp rpcQueryResp
			for _, m := range []struct{ in, out interface{} }{{req, &gotReq}, {resp, &gotResp}} {
				conn.Write(freshFrame(b, 1, kQuery, m.in))
				_, _, payload, err := readFrame(&conn)
				if err != nil {
					b.Fatal(err)
				}
				if err := freshDecode(payload, m.out); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
