// Package cluster distributes a partitioned SPB-tree (internal/forest)
// across processes: each node owns a subset of the forest's shards as
// durable trees, a consistent-hash ring assigns shards to nodes, and a
// router scatters queries to the owning nodes and gather-merges the answers
// with the same associative reductions the single-process forest uses — so
// a cluster answers byte-identically to the equivalent local forest.
//
// The wire layer is hand-rolled on the standard library: length-prefixed
// frames carrying self-contained gob payloads over TCP. Every payload is
// byte for byte what a fresh gob.Encoder writes, but the codec pays for a
// payload type's descriptor once per process, not once per frame: senders
// prepend the type's cached descriptor to a warm encoder's value message,
// and receivers hand the value message to a pooled decoder that has already
// read the same descriptor (see decodePayload). Deadlines travel as
// remaining-microsecond budgets, results travel alongside typed errors (the
// partials-plus-typed-error contract survives the network hop), and shard
// handoff moves a durable tree's files between nodes with reads served by
// the old owner until the placement flips. DESIGN.md §12 specifies the
// protocol and the placement/handoff state machines; OPERATIONS.md is the
// runbook.
package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"

	"spbtree/internal/core"
)

// Frame layout (DESIGN.md §12.2): a fixed 13-byte header — payload length
// (u32, big-endian), request ID (u64, big-endian), kind (u8) — followed by
// exactly length bytes of payload, a self-contained gob stream. Responses
// echo the request ID, which is how the multiplexing client pairs them with
// callers; kinds are per-operation so a reader can dispatch without
// decoding.
const (
	frameHeaderLen = 4 + 8 + 1
	// maxFramePayload bounds a frame, defending both sides against corrupt
	// or hostile length prefixes. 64 MiB fits every legitimate payload: the
	// largest are export snapshots and handoff chunks, both of which the
	// senders cap far below this.
	maxFramePayload = 64 << 20
)

// Request/response kinds. A response frame answers with the request's kind
// on success and kErr on failure — so the client decodes the payload into
// the matching response struct either way (every response struct carries
// its Err field).
const (
	// 1 and 2 are reserved: they were the separate range and kNN requests
	// that kQuery replaced.
	_ byte = iota + 1
	_
	kJoin
	kMutate
	kStats
	kExport
	kFreeze
	kListFiles
	kReadFile
	kBeginInstall
	kInstallChunk
	kFinishInstall
	kActivate
	kDrop
	kPing
	kErr
	// 17 is reserved: it was the hint request of the router-side planner
	// (DESIGN.md §15.7). Kinds are append-only and never reused, so every
	// other value stays wire-stable and an old sender's frame gets the
	// unknown-kind error.
	_
	kQuery
)

// Error codes carried by wireErr, mapping wire failures back onto the
// library's typed errors on the client side (see fromWireErr).
const (
	ecGeneric uint8 = iota
	ecCanceled
	ecNotFound
	ecClosed
	ecNotOwner
	ecFrozen
	// ecInvalidQuery was added after the codes above; codes are append-only,
	// and a receiver that predates one decodes it as a generic error.
	ecInvalidQuery
)

// wireErr is an error crossing the wire: a code for the typed identity and
// the full message for humans. The zero pointer means success.
type wireErr struct {
	Code uint8
	Msg  string
}

// toWireErr translates err for transport, preserving the typed identities
// the query contract promises (core.ErrCanceled et al.).
func toWireErr(err error) *wireErr {
	if err == nil {
		return nil
	}
	code := ecGeneric
	switch {
	case errors.Is(err, core.ErrCanceled):
		code = ecCanceled
	case errors.Is(err, core.ErrNotFound):
		code = ecNotFound
	case errors.Is(err, core.ErrClosed):
		code = ecClosed
	case errors.Is(err, ErrNotOwner):
		code = ecNotOwner
	case errors.Is(err, ErrShardFrozen):
		code = ecFrozen
	case errors.Is(err, core.ErrInvalidQuery):
		code = ecInvalidQuery
	}
	return &wireErr{Code: code, Msg: err.Error()}
}

// fromWireErr reconstitutes a transported error so errors.Is works across
// the network exactly as it does in-process: a canceled remote query still
// matches core.ErrCanceled, a frozen shard still matches ErrShardFrozen.
func fromWireErr(we *wireErr) error {
	if we == nil {
		return nil
	}
	switch we.Code {
	case ecCanceled:
		return fmt.Errorf("%w: %s", core.ErrCanceled, we.Msg)
	case ecNotFound:
		return fmt.Errorf("%w: %s", core.ErrNotFound, we.Msg)
	case ecClosed:
		return fmt.Errorf("%w: %s", core.ErrClosed, we.Msg)
	case ecNotOwner:
		return fmt.Errorf("%w: %s", ErrNotOwner, we.Msg)
	case ecFrozen:
		return fmt.Errorf("%w: %s", ErrShardFrozen, we.Msg)
	case ecInvalidQuery:
		return fmt.Errorf("%w: %s", core.ErrInvalidQuery, we.Msg)
	}
	return errors.New(we.Msg)
}

// wireObj is a metric object in transit: its ID plus its AppendBinary
// payload, decoded on the far side with the space's shared Codec. Objects
// cross the wire this way because metric.Object is an interface gob cannot
// encode generically — and because the codec round-trip is exactly the
// storage round-trip, so a transported object is bit-equal to a stored one.
type wireObj struct {
	ID   uint64
	Data []byte
}

// wireResult is one query answer in transit.
type wireResult struct {
	ID    uint64
	Data  []byte
	Dist  float64
	Exact bool
}

// rpcQueryReq asks the receiving node to answer one search request over the
// listed shards (which it must own). Query is the caller's core.Query as it
// is, except that its object travels as Q (core.Query.Q stays nil), so a new
// query parameter crosses the wire without a protocol change; the receiver
// validates it before any shard work. A kNN request that arrives bounded is
// scattered flat, not staged again (DESIGN.md §15.4). DeadlineUS is the
// caller's remaining budget in microseconds at send time (0 = none): the
// receiver re-arms it as a local context deadline, so cancellation semantics
// survive the hop without clock synchronization.
type rpcQueryReq struct {
	Shards     []int
	Q          wireObj
	Query      core.Query
	DeadlineUS int64
}

// rpcQueryResp carries a query's answers: Results for range and kNN, Pairs
// for a join — ID pairs, the objects themselves stay put. Err and the answers
// are NOT mutually exclusive: a canceled or failed query returns the partial
// answers gathered before the failure alongside the typed error, preserving
// the library's partials contract across the wire. Pairs was added after the
// other fields; gob matches fields by name, so a join reply from a node that
// predates it (which sent Pairs and Err only) still decodes, without stats.
type rpcQueryResp struct {
	Results []wireResult
	Pairs   []core.IDPair
	Stats   core.QueryStats
	Err     *wireErr
}

// shardRef names a shard and the address of the node serving it; an empty
// Addr means "the receiving node owns it".
type shardRef struct {
	Shard int
	Addr  string
}

// rpcJoinReq asks the receiving node to self-join its owned QShards against
// every shard of the cluster (OShards): local partners join directly,
// remote partners are fetched once via kExport and rebuilt into the shared
// mapped space (DESIGN.md §12.5). The node answers with an rpcQueryResp.
type rpcJoinReq struct {
	QShards    []int
	OShards    []shardRef
	Eps        float64
	DeadlineUS int64
}

// rpcMutateReq inserts (or, with Delete set, deletes) one object into the
// named shard. The router sends it to the shard's owner; a node that does
// not own the shard answers ErrNotOwner, which the router turns into a
// placement refresh and a single retry.
type rpcMutateReq struct {
	Shard  int
	Obj    wireObj
	Delete bool
}

// rpcMutateResp acknowledges a mutation.
type rpcMutateResp struct {
	Objects int
	Err     *wireErr
}

// rpcStatsReq asks a node for its shape and counters.
type rpcStatsReq struct{}

// rpcStatsResp carries the node's stats snapshot.
type rpcStatsResp struct {
	Stats NodeStats
	Err   *wireErr
}

// rpcExportReq asks for a snapshot of a shard's live objects — the
// data-shipping primitive behind distributed joins.
type rpcExportReq struct {
	Shard      int
	DeadlineUS int64
}

// rpcExportResp carries the snapshot, sorted by ascending ID.
type rpcExportResp struct {
	Objs []wireObj
	Err  *wireErr
}

// rpcFreezeReq toggles a shard's frozen state. Frozen shards serve queries
// and exports but reject mutations with ErrShardFrozen, and their
// background compaction is held — the quiesced state handoff copies from.
type rpcFreezeReq struct {
	Shard int
	On    bool
}

// rpcFreezeResp acknowledges the toggle.
type rpcFreezeResp struct {
	Err *wireErr
}

// rpcListFilesReq asks the owner for a frozen shard's file manifest.
type rpcListFilesReq struct {
	Shard int
}

// rpcListFilesResp lists the shard directory's files (paths relative to the
// shard root) and sizes at manifest time.
type rpcListFilesResp struct {
	Paths []string
	Sizes []int64
	Err   *wireErr
}

// rpcReadFileReq reads Len bytes at Off of one shard file.
type rpcReadFileReq struct {
	Shard int
	Path  string
	Off   int64
	Len   int
}

// rpcReadFileResp carries the bytes; EOF reports whether the file ends at
// Off+len(Data).
type rpcReadFileResp struct {
	Data []byte
	EOF  bool
	Err  *wireErr
}

// rpcInstallReq drives the receiving side of handoff: BeginInstall creates
// the staging directory, InstallChunk appends Data to Path within it
// (chunks for one file arrive in order), FinishInstall fsyncs the staged
// tree, Activate renames staging into place and opens the shard, Drop
// closes and deletes a shard the node no longer owns.
type rpcInstallReq struct {
	Shard int
	Path  string
	Data  []byte
	First bool
}

// rpcInstallResp acknowledges one install step.
type rpcInstallResp struct {
	Err *wireErr
}

// rpcPingReq checks liveness.
type rpcPingReq struct{}

// rpcPingResp answers a ping with the node's name.
type rpcPingResp struct {
	Name string
	Err  *wireErr
}

// Frames are pooled while small: a connection mostly carries queries and
// their answers, and an occasional export snapshot or handoff chunk should
// not pin its buffer (or its codec's) for the life of the process.
const maxPooledFrame = 64 << 10

var frameBufs = sync.Pool{New: func() interface{} { return new([]byte) }}

// writeFrame gob-encodes payload into one frame and writes it to w. The
// frame is encoded before mu is taken, so the senders sharing a connection
// (the client's callers, a node's per-request handlers) encode in parallel
// and queue only for the Write.
func writeFrame(w io.Writer, mu *sync.Mutex, reqID uint64, kind byte, payload interface{}) error {
	bp := frameBufs.Get().(*[]byte)
	b := append((*bp)[:0], make([]byte, frameHeaderLen)...) // header placeholder
	b, err := appendPayload(b, payload)
	if err != nil {
		err = fmt.Errorf("cluster: encode frame kind %d: %w", kind, err)
	} else if n := len(b) - frameHeaderLen; n > maxFramePayload {
		err = fmt.Errorf("cluster: frame payload %d bytes exceeds limit", n)
	} else {
		binary.BigEndian.PutUint32(b[0:4], uint32(n))
		binary.BigEndian.PutUint64(b[4:12], reqID)
		b[12] = kind
		mu.Lock()
		_, err = w.Write(b)
		mu.Unlock()
	}
	if cap(b) <= maxPooledFrame {
		*bp = b
		frameBufs.Put(bp)
	}
	return err
}

// readFrame reads one frame header and payload. The payload comes back raw;
// the caller decodes it into the struct its kind implies via decodePayload.
func readFrame(r io.Reader) (reqID uint64, kind byte, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n > maxFramePayload {
		return 0, 0, nil, fmt.Errorf("cluster: frame payload %d bytes exceeds limit", n)
	}
	reqID = binary.BigEndian.Uint64(hdr[4:12])
	kind = hdr[12]
	payload = make([]byte, n)
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, fmt.Errorf("cluster: short frame payload: %w", err)
	}
	return reqID, kind, payload, nil
}

// A payload is what a fresh gob.Encoder writes for one value: a sequence of
// messages, each an unsigned byte count and then that many bytes opening
// with a signed type id (the framing the encoding/gob documentation
// specifies). The leading messages have negative ids and define the value's
// types — its descriptor; the last one has a non-negative id and carries
// the value. Type ids are process-wide in gob, so a payload type's
// descriptor is the same bytes for every frame a process sends, and the
// codec below compiles it once per process instead of once per frame.

// gobUint decodes the gob unsigned integer at the front of b and returns it
// with its width, or width 0 when b does not start with a well-formed one.
func gobUint(b []byte) (uint64, int) {
	if len(b) == 0 {
		return 0, 0
	}
	if b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	n := -int(int8(b[0]))
	if n > 8 || len(b) <= n {
		return 0, 0
	}
	var x uint64
	for _, c := range b[1 : 1+n] {
		x = x<<8 | uint64(c)
	}
	return x, 1 + n
}

// descriptorLen returns the length of payload's descriptor: its leading
// messages up to the first whose type id is not negative, read as a gob
// Decoder reads them (a type id is an int32). It is -1 when those messages
// are not well framed, which leaves the payload to a fresh decoder.
func descriptorLen(payload []byte) int {
	off := 0
	for {
		n, w := gobUint(payload[off:])
		if w == 0 || n == 0 || n > uint64(len(payload)-off-w) {
			return -1
		}
		x, iw := gobUint(payload[off+w : off+w+int(n)])
		if iw == 0 {
			return -1
		}
		id := int64(x >> 1)
		if x&1 != 0 {
			id = ^id
		}
		if int32(id) >= 0 {
			return off
		}
		off += w + int(n)
	}
}

// frameEncoder is a gob.Encoder that has sent one payload type's descriptor
// and nothing since, so its next Encode writes exactly what a fresh
// encoder writes after the descriptor. It appends to out.
type frameEncoder struct {
	enc *gob.Encoder
	out []byte
}

// Write appends p to out; the encoder writes each message with one call.
func (e *frameEncoder) Write(p []byte) (int, error) {
	e.out = append(e.out, p...)
	return len(p), nil
}

// typeEncoders caches one payload type's descriptor and pools its warm
// encoders. err is gob's error on the type's zero value: a type gob cannot
// encode fails every payload with it, as it fails a fresh encoder.
type typeEncoders struct {
	zero interface{}
	err  error
	desc []byte
	pool sync.Pool // *frameEncoder
}

var encoders sync.Map // reflect.Type → *typeEncoders

// warmEncoder returns an encoder warmed on the type's zero value, which
// sends the type's whole descriptor (gob describes a type statically) and
// no interface value's concrete type.
func (te *typeEncoders) warmEncoder() (*frameEncoder, error) {
	e := new(frameEncoder)
	e.enc = gob.NewEncoder(e)
	return e, e.enc.Encode(te.zero)
}

func encodersFor(rt reflect.Type) (*typeEncoders, error) {
	got, ok := encoders.Load(rt)
	if !ok {
		te := new(typeEncoders)
		if rt != nil {
			base := rt
			for base.Kind() == reflect.Pointer {
				base = base.Elem()
			}
			te.zero = reflect.New(base).Interface()
		}
		var e *frameEncoder
		if e, te.err = te.warmEncoder(); te.err == nil {
			te.desc = bytes.Clone(e.out[:descriptorLen(e.out)])
			e.out = nil
			te.pool.Put(e)
		}
		got, _ = encoders.LoadOrStore(rt, te)
	}
	te := got.(*typeEncoders)
	return te, te.err
}

// appendPayload appends payload's gob encoding to dst: the type's cached
// descriptor, then a warm encoder's value message — byte for byte what a
// fresh gob.Encoder writes. An encoder whose Encode sent a definition of
// its own (an interface value's concrete type, which the zero value does
// not carry) knows more than a fresh one would, so it is not pooled again.
func appendPayload(dst []byte, payload interface{}) ([]byte, error) {
	te, err := encodersFor(reflect.TypeOf(payload))
	if err != nil {
		return dst, err
	}
	e, _ := te.pool.Get().(*frameEncoder)
	if e == nil {
		if e, err = te.warmEncoder(); err != nil {
			return dst, err
		}
	}
	dst = append(dst, te.desc...)
	start := len(dst)
	e.out = dst
	err = e.enc.Encode(payload)
	dst, e.out = e.out, nil
	if err == nil && descriptorLen(dst[start:]) == 0 && len(dst)-start <= maxPooledFrame {
		te.pool.Put(e)
	}
	return dst, err
}

// maxDescriptors bounds the descriptors cached per target type. A type
// normally meets one per sending process (type ids depend on the order a
// process first used its types); payloads past the bound take a fresh
// decoder each.
const maxDescriptors = 8

// frameDecoder is a gob.Decoder that has read one descriptor and since
// then only value messages.
type frameDecoder struct {
	dec *gob.Decoder
	r   bytes.Reader
}

// decoderPool pools the decoders that have read desc, for one target type.
type decoderPool struct {
	desc []byte
	pool sync.Pool // *frameDecoder
}

// typeDecoders holds one target type's decoder pools, one per descriptor.
type typeDecoders struct {
	mu    sync.RWMutex
	pools []*decoderPool // at most maxDescriptors
}

var decoders sync.Map // reflect.Type → *typeDecoders

func (td *typeDecoders) find(desc []byte) *decoderPool {
	td.mu.RLock()
	defer td.mu.RUnlock()
	for _, p := range td.pools {
		if bytes.Equal(p.desc, desc) {
			return p
		}
	}
	return nil
}

// add returns desc's pool, creating it while the type holds fewer than
// maxDescriptors; nil past the bound.
func (td *typeDecoders) add(desc []byte) *decoderPool {
	td.mu.Lock()
	defer td.mu.Unlock()
	for _, p := range td.pools {
		if bytes.Equal(p.desc, desc) {
			return p
		}
	}
	if len(td.pools) == maxDescriptors {
		return nil
	}
	p := &decoderPool{desc: bytes.Clone(desc)}
	td.pools = append(td.pools, p)
	return p
}

// decodePayload decodes a frame payload into out. A pooled decoder that has
// read the payload's descriptor decodes its value message alone; with no
// such decoder, a fresh one decodes the whole payload and, on success,
// joins the pool for that descriptor. Either way the outcome is a fresh
// decoder's: the descriptor bytes are the same, so the pooled decoder knows
// exactly the types a fresh one knows after reading them. (A value adds a
// type to a decoder only through a definition inline in an interface value,
// which an encoder writes only for an interface nested in an interface
// value; no message here carries one.) A decoder whose Decode failed is
// dropped.
func decodePayload(payload []byte, out interface{}) error {
	var td *typeDecoders
	var p *decoderPool
	n := descriptorLen(payload)
	if n >= 0 {
		rt := reflect.TypeOf(out)
		got, ok := decoders.Load(rt)
		if !ok {
			got, _ = decoders.LoadOrStore(rt, new(typeDecoders))
		}
		td = got.(*typeDecoders)
		p = td.find(payload[:n])
	}
	var d *frameDecoder
	if p != nil {
		d, _ = p.pool.Get().(*frameDecoder)
	}
	if d != nil {
		d.r.Reset(payload[n:])
	} else {
		d = new(frameDecoder)
		d.r.Reset(payload)
		d.dec = gob.NewDecoder(&d.r)
	}
	if err := d.dec.Decode(out); err != nil {
		return fmt.Errorf("cluster: decode frame: %w", err)
	}
	if p == nil && td != nil {
		p = td.add(payload[:n])
	}
	if p != nil && len(payload) <= maxPooledFrame {
		d.r.Reset(nil)
		p.pool.Put(d)
	}
	return nil
}
