// Package cluster distributes a partitioned SPB-tree (internal/forest)
// across processes: each node owns a subset of the forest's shards as
// durable trees, a consistent-hash ring assigns shards to nodes, and a
// router scatters queries to the owning nodes and gather-merges the answers
// with the same associative reductions the single-process forest uses — so
// a cluster answers byte-identically to the equivalent local forest.
//
// The wire layer is hand-rolled on the standard library: length-prefixed
// frames carrying self-contained gob payloads over TCP. Deadlines travel as
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
	kRange byte = iota + 1
	kKNN
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

// rpcRangeReq asks the receiving node to answer RQ(Q, r) over the listed
// shards (which it must own). DeadlineUS is the caller's remaining budget in
// microseconds at send time (0 = none): the receiver re-arms it as a local
// context deadline, so cancellation semantics survive the hop without
// clock synchronization.
type rpcRangeReq struct {
	Shards     []int
	Q          wireObj
	R          float64
	DeadlineUS int64
	WithStats  bool
}

// rpcKNNReq asks for kNN (or budgeted approximate kNN when Approx is set)
// over the listed shards. Bounded and Bound carry core.Query's fields of the
// same names: with Bounded set the receiver answers the canonical top-k among
// objects within Bound of Q instead of the unrestricted top-k, and scatters
// it flat — a request that arrives bounded is not staged again (DESIGN.md
// §15.4). Bounded and Approx are mutually exclusive. The router sends what
// its caller's query says, and gob decodes the fields' absence as false/0 —
// plain kNN — on old senders.
type rpcKNNReq struct {
	Shards     []int
	Q          wireObj
	K          int
	MaxVerify  int
	Approx     bool
	DeadlineUS int64
	WithStats  bool
	Bounded    bool
	Bound      float64
}

// rpcQueryResp carries a query's answers. Err and Results are NOT mutually
// exclusive: a canceled or failed query returns the partial results
// gathered before the failure alongside the typed error, preserving the
// library's partials contract across the wire.
type rpcQueryResp struct {
	Results []wireResult
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
// mapped space (DESIGN.md §12.5).
type rpcJoinReq struct {
	QShards    []int
	OShards    []shardRef
	Eps        float64
	DeadlineUS int64
}

// rpcJoinResp carries join pairs as ID pairs — the objects themselves stay
// put. Partials accompany Err, as in rpcQueryResp.
type rpcJoinResp struct {
	Pairs []core.IDPair
	Err   *wireErr
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

// writeFrame gob-encodes payload and writes one frame. Callers serialize
// concurrent writers (the client and the per-connection server loop each
// hold a write mutex).
func writeFrame(w io.Writer, reqID uint64, kind byte, payload interface{}) error {
	var buf bytes.Buffer
	buf.Write(make([]byte, frameHeaderLen)) // header placeholder
	if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
		return fmt.Errorf("cluster: encode frame kind %d: %w", kind, err)
	}
	b := buf.Bytes()
	n := len(b) - frameHeaderLen
	if n > maxFramePayload {
		return fmt.Errorf("cluster: frame payload %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(b[0:4], uint32(n))
	binary.BigEndian.PutUint64(b[4:12], reqID)
	b[12] = kind
	_, err := w.Write(b)
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

// decodePayload decodes a frame payload into out.
func decodePayload(payload []byte, out interface{}) error {
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(out); err != nil {
		return fmt.Errorf("cluster: decode frame: %w", err)
	}
	return nil
}
