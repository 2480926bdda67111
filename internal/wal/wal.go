// Package wal is the SPB-tree's write-ahead log: an append-only, segmented,
// CRC32-C-framed record log with group commit. Concurrent Append callers are
// batched by a single committer goroutine into one write+fsync, so write
// throughput scales with concurrency while every acknowledged append is
// durable — the contract the durable tree's recovery path builds on
// (DESIGN.md §11).
//
// Frame layout (little-endian):
//
//	u32 payload length | u64 LSN | u8 type | payload | u32 CRC32-C
//
// The checksum covers LSN, type and payload. LSNs are assigned contiguously
// by the committer, and each segment's header records the LSN of its first
// frame, so replay can verify that no frame was lost or reordered.
//
// Segment layout: wal-%016x.log files named by their first LSN, each opening
// with a 16-byte header (magic "SPBW", version, first LSN). Rotation fsyncs
// the old tail before the new segment becomes reachable, so a torn frame can
// only ever be in the newest segment: replay treats a bad frame there as the
// crash tail and truncates, while a bad frame in any earlier segment is
// reported as corruption (ErrCorrupt) — never silently skipped.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"spbtree/internal/retry"
)

const (
	// headerSize is the fixed segment header: magic (4) + version (4) +
	// first LSN (8).
	headerSize = 16
	// frameOverhead is a frame's fixed cost: length (4) + LSN (8) + type (1)
	// + CRC (4).
	frameOverhead = 17
	// MaxPayload caps one record's payload.
	MaxPayload = 16 << 20
	// walVersion versions the segment encoding.
	walVersion = 1
	// defaultSegmentBytes rotates segments at 64 MiB.
	defaultSegmentBytes = 64 << 20
	// maxBatch caps how many appends one group commit folds together.
	maxBatch = 1024
)

// segPrefix/segSuffix frame the segment file names: wal-%016x.log.
const (
	segPrefix = "wal-"
	segSuffix = ".log"
)

var (
	walMagic = [4]byte{'S', 'P', 'B', 'W'}
	crcTable = crc32.MakeTable(crc32.Castagnoli)
)

// ErrClosed matches appends that failed because the log was closed while
// they were pending or before they were submitted.
var ErrClosed = errors.New("wal: log closed")

// ErrCorrupt matches replay failures that are not a legal crash artifact: a
// bad frame or header in any segment other than the newest one. A torn tail
// in the newest segment is normal crash damage and is truncated, never
// reported through this error.
var ErrCorrupt = errors.New("wal: corrupt log")

// RecordType discriminates log records. The WAL itself is payload-agnostic;
// the types exist so replayers can dispatch without decoding.
type RecordType uint8

const (
	// RecInsert is an object insertion (or upsert).
	RecInsert RecordType = 1
	// RecDelete is an object deletion.
	RecDelete RecordType = 2
)

// String implements fmt.Stringer.
func (t RecordType) String() string {
	switch t {
	case RecInsert:
		return "insert"
	case RecDelete:
		return "delete"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Record is one replayed log entry.
type Record struct {
	// LSN is the record's log sequence number; contiguous and ascending.
	LSN uint64
	// Type is the record discriminator.
	Type RecordType
	// Payload is the record body. Replay hands each callback a fresh copy.
	Payload []byte
}

// Options configures Open.
type Options struct {
	// FS is the filesystem; nil selects the host filesystem.
	FS FS
	// NoSync skips the fsync of each group commit. Appends then acknowledge
	// after the OS accepted the bytes — fast and crash-unsafe, for benchmarks
	// quantifying the cost of durability only.
	NoSync bool
	// SegmentBytes is the rotation threshold (default 64 MiB).
	SegmentBytes int64
}

// Stats is a snapshot of the log's lifetime counters, for observing the
// group-commit batching ratio (Appends/Batches) and sync volume.
type Stats struct {
	// Appends counts acknowledged records.
	Appends int64
	// Batches counts group commits (write+fsync rounds).
	Batches int64
	// Syncs counts fsyncs issued on segment files.
	Syncs int64
}

// Log is an open write-ahead log. Append is safe for concurrent use; Close
// fails all pending appends with ErrClosed.
type Log struct {
	dir      string
	fs       FS
	noSync   bool
	segBytes int64

	// qmu guards the pending append queue — deliberately separate from mu so
	// appenders keep enqueueing (and batching up) while the committer holds
	// mu through a write+fsync. This separation is the group commit.
	qmu       sync.Mutex
	pending   []*appendReq
	scheduled bool
	closed    bool

	kick chan struct{}
	quit chan struct{}
	wg   sync.WaitGroup

	// mu guards the active segment and LSN state: the committer's
	// write/rotate path and Checkpoint's segment deletion.
	mu          sync.Mutex
	f           File
	activeName  string
	activeFirst uint64
	size        int64
	nextLSN     uint64
	failed      error // poisoned: a rollback after a failed write also failed

	appends atomic.Int64
	batches atomic.Int64
	syncs   atomic.Int64
}

// appendReq is one caller waiting for its group commit.
type appendReq struct {
	typ     RecordType
	payload []byte
	lsn     uint64
	err     error
	done    chan struct{}
}

// segmentName formats the file name of the segment whose first record is lsn.
func segmentName(lsn uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, lsn, segSuffix)
}

// parseSegmentName extracts the first LSN from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	if len(hex) != 16 {
		return 0, false
	}
	lsn, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return lsn, true
}

// SegmentInfo describes one on-disk segment.
type SegmentInfo struct {
	// Name is the file name within the log directory.
	Name string
	// FirstLSN is the LSN of the segment's first frame (from its name).
	FirstLSN uint64
}

// Segments lists the log's segment files in LSN order. fsys nil selects the
// host filesystem.
func Segments(dir string, fsys FS) ([]SegmentInfo, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []SegmentInfo
	for _, n := range names {
		if lsn, ok := parseSegmentName(n); ok {
			segs = append(segs, SegmentInfo{Name: n, FirstLSN: lsn})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].FirstLSN < segs[j].FirstLSN })
	return segs, nil
}

// Open opens (creating if necessary) the log in dir, repairs any torn tail
// in the newest segment by truncating at the first bad frame, and starts the
// committer. The caller should Replay first if it needs the surviving
// records — Open decides durability boundaries but does not interpret
// payloads.
func Open(dir string, opts Options) (*Log, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS{}
	}
	segBytes := opts.SegmentBytes
	if segBytes <= 0 {
		segBytes = defaultSegmentBytes
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	l := &Log{
		dir:      dir,
		fs:       fsys,
		noSync:   opts.NoSync,
		segBytes: segBytes,
		kick:     make(chan struct{}, 1),
		quit:     make(chan struct{}),
	}
	segs, err := Segments(dir, fsys)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	if len(segs) == 0 {
		if err := l.createSegment(1); err != nil {
			return nil, err
		}
		if err := fsys.SyncDir(dir); err != nil {
			l.f.Close()
			return nil, fmt.Errorf("wal: open: %w", err)
		}
		l.nextLSN = 1
	} else {
		last := segs[len(segs)-1]
		path := filepath.Join(dir, last.Name)
		f, err := fsys.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: open: %w", err)
		}
		goodEnd, lastLSN, headerOK, err := scanTail(f, last.FirstLSN)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: open %s: %w", last.Name, err)
		}
		if !headerOK {
			// The segment was created during a rotation the crash interrupted
			// before its header became durable: no frame can have been
			// written (the committer writes the header first). Rewrite it.
			if err := f.Truncate(0); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: open: repair header: %w", err)
			}
			if err := writeHeader(f, last.FirstLSN); err != nil {
				f.Close()
				return nil, err
			}
			goodEnd, lastLSN = headerSize, last.FirstLSN-1
		}
		size, err := f.Size()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: open: %w", err)
		}
		if goodEnd < size {
			// Torn tail: drop everything from the first bad frame on.
			if err := f.Truncate(goodEnd); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: open: truncate torn tail: %w", err)
			}
		}
		if err := retry.Sync(f.Sync); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: open: %w", err)
		}
		l.f = f
		l.activeName = last.Name
		l.activeFirst = last.FirstLSN
		l.size = goodEnd
		l.nextLSN = lastLSN + 1
	}
	l.wg.Add(1)
	go l.committer()
	return l, nil
}

// createSegment creates and syncs a fresh segment whose first record will be
// firstLSN, and makes it the active tail. Callers must sync the directory.
func (l *Log) createSegment(firstLSN uint64) error {
	name := segmentName(firstLSN)
	f, err := l.fs.OpenFile(filepath.Join(l.dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if err := writeHeader(f, firstLSN); err != nil {
		f.Close()
		return err
	}
	if l.f != nil {
		l.f.Close()
	}
	l.f = f
	l.activeName = name
	l.activeFirst = firstLSN
	l.size = headerSize
	return nil
}

// writeHeader writes and syncs a segment header.
func writeHeader(f File, firstLSN uint64) error {
	var h [headerSize]byte
	copy(h[0:4], walMagic[:])
	binary.LittleEndian.PutUint32(h[4:8], walVersion)
	binary.LittleEndian.PutUint64(h[8:16], firstLSN)
	if err := retry.Write(f, h[:]); err != nil {
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	if err := retry.Sync(f.Sync); err != nil {
		return fmt.Errorf("wal: sync segment header: %w", err)
	}
	return nil
}

// Append submits one record and blocks until its group commit makes it
// durable (or fails). The returned LSN is the record's replay identity.
func (l *Log) Append(typ RecordType, payload []byte) (uint64, error) {
	if len(payload) > MaxPayload {
		return 0, fmt.Errorf("wal: payload is %d bytes, limit %d", len(payload), MaxPayload)
	}
	req := &appendReq{typ: typ, payload: payload, done: make(chan struct{})}
	l.qmu.Lock()
	if l.closed {
		l.qmu.Unlock()
		return 0, ErrClosed
	}
	l.pending = append(l.pending, req)
	if !l.scheduled {
		l.scheduled = true
		l.kick <- struct{}{}
	}
	l.qmu.Unlock()
	<-req.done
	return req.lsn, req.err
}

// committer is the single goroutine that turns pending appends into group
// commits: one frame-encoded write and one fsync per batch, then every
// caller in the batch is acknowledged with its LSN.
func (l *Log) committer() {
	defer l.wg.Done()
	for {
		select {
		case <-l.kick:
		case <-l.quit:
			l.qmu.Lock()
			batch := l.pending
			l.pending = nil
			l.qmu.Unlock()
			failBatch(batch, ErrClosed)
			return
		}
		l.qmu.Lock()
		batch := l.pending
		l.pending = nil
		l.scheduled = false
		l.qmu.Unlock()
		for len(batch) > 0 {
			n := len(batch)
			if n > maxBatch {
				n = maxBatch
			}
			l.commit(batch[:n])
			batch = batch[n:]
		}
	}
}

// failBatch acknowledges every request with err.
func failBatch(batch []*appendReq, err error) {
	for _, r := range batch {
		r.err = err
		close(r.done)
	}
}

// commit durably appends one batch: rotate if due, encode all frames into a
// single buffer, write, fsync, acknowledge. On a write or sync failure the
// tail is rolled back to the pre-batch size so no partial frame lingers in
// the middle of the segment — the invariant that lets replay treat any bad
// frame below the tail as corruption rather than crash damage.
func (l *Log) commit(batch []*appendReq) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		failBatch(batch, l.failed)
		return
	}
	if l.size >= l.segBytes {
		if err := l.rotateLocked(); err != nil {
			failBatch(batch, err)
			return
		}
	}
	var buf []byte
	for i, r := range batch {
		buf = appendFrame(buf, l.nextLSN+uint64(i), r.typ, r.payload)
	}
	preSize := l.size
	if err := retry.Write(l.f, buf); err != nil {
		l.rollbackLocked(preSize, err)
		failBatch(batch, err)
		return
	}
	if !l.noSync {
		if err := retry.Sync(l.f.Sync); err != nil {
			l.rollbackLocked(preSize, err)
			failBatch(batch, err)
			return
		}
		l.syncs.Add(1)
	}
	l.size += int64(len(buf))
	// Count before acknowledging: a caller that reads Stats right after its
	// append returns must find it counted.
	l.appends.Add(int64(len(batch)))
	l.batches.Add(1)
	for _, r := range batch {
		r.lsn = l.nextLSN
		l.nextLSN++
		close(r.done)
	}
}

// rollbackLocked truncates the active segment back to size after a failed
// batch. If even the rollback fails, the log is poisoned: the on-disk tail
// state is unknown, so further appends could write after a torn frame and
// become unreachable to replay.
func (l *Log) rollbackLocked(size int64, cause error) {
	if err := l.f.Truncate(size); err != nil {
		l.failed = fmt.Errorf("wal: poisoned: rollback after %v failed: %w", cause, err)
		return
	}
	if err := retry.Sync(l.f.Sync); err != nil {
		l.failed = fmt.Errorf("wal: poisoned: rollback sync after %v failed: %w", cause, err)
	}
}

// rotateLocked seals the active segment and switches to a fresh one. The
// old tail is fsynced before the new segment becomes reachable (created,
// header-synced, directory-synced), so only the newest segment can ever hold
// a torn frame.
func (l *Log) rotateLocked() error {
	if err := retry.Sync(l.f.Sync); err != nil {
		return fmt.Errorf("wal: rotate: seal %s: %w", l.activeName, err)
	}
	l.syncs.Add(1)
	if err := l.createSegment(l.nextLSN); err != nil {
		return err
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	return nil
}

// Checkpoint records that every LSN ≤ upTo is durably applied elsewhere and
// garbage-collects the log: the active segment is rotated away if it is
// fully applied and non-empty, and every segment whose records all fall at
// or below upTo (and that is no longer active) is deleted. Replay after a
// checkpoint starts at the oldest surviving segment.
func (l *Log) Checkpoint(upTo uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if l.size > headerSize && l.nextLSN-1 <= upTo {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	segs, err := Segments(l.dir, l.fs)
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	removed := false
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].FirstLSN > upTo+1 || segs[i].Name == l.activeName {
			break
		}
		if err := l.fs.Remove(filepath.Join(l.dir, segs[i].Name)); err != nil {
			return fmt.Errorf("wal: checkpoint: %w", err)
		}
		removed = true
	}
	if removed {
		if err := l.fs.SyncDir(l.dir); err != nil {
			return fmt.Errorf("wal: checkpoint: %w", err)
		}
	}
	return nil
}

// Sync forces the active segment to stable storage — only useful under
// NoSync, where commits skip it.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if err := retry.Sync(l.f.Sync); err != nil {
		return err
	}
	l.syncs.Add(1)
	return nil
}

// NextLSN returns the LSN the next accepted append will get.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// Stats snapshots the lifetime counters.
func (l *Log) Stats() Stats {
	return Stats{Appends: l.appends.Load(), Batches: l.batches.Load(), Syncs: l.syncs.Load()}
}

// Close stops the committer, fails every pending append with ErrClosed, and
// closes the active segment. Records acknowledged before Close remain
// durable; records still waiting are rejected, never half-committed.
func (l *Log) Close() error {
	l.qmu.Lock()
	if l.closed {
		l.qmu.Unlock()
		return ErrClosed
	}
	l.closed = true
	l.qmu.Unlock()
	close(l.quit)
	l.wg.Wait()
	// The committer has exited; any stragglers that enqueued before closed
	// was set were drained by its quit path.
	l.mu.Lock()
	defer l.mu.Unlock()
	var syncErr error
	if l.failed == nil && !l.noSync {
		syncErr = retry.Sync(l.f.Sync)
	}
	closeErr := l.f.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// appendFrame encodes one frame onto b.
func appendFrame(b []byte, lsn uint64, typ RecordType, payload []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	start := len(b)
	b = binary.LittleEndian.AppendUint64(b, lsn)
	b = append(b, byte(typ))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[start:], crcTable))
}

// readHeader validates a segment header read from f; ok is false when the
// header is absent or mangled (only legal for a rotation-interrupted newest
// segment).
func readHeader(f io.ReaderAt, wantFirst uint64) (ok bool, err error) {
	var h [headerSize]byte
	n, err := f.ReadAt(h[:], 0)
	if err == io.EOF || n < headerSize {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if [4]byte(h[0:4]) != walMagic {
		return false, nil
	}
	if binary.LittleEndian.Uint32(h[4:8]) != walVersion {
		return false, nil
	}
	if binary.LittleEndian.Uint64(h[8:16]) != wantFirst {
		return false, nil
	}
	return true, nil
}

// scanFrames iterates the valid frame prefix of a segment, calling fn per
// frame, and returns the byte offset just past the last valid frame plus the
// last valid LSN (firstLSN-1 when no frame is valid). Any malformed frame —
// truncated, bad CRC, out-of-sequence LSN, oversized length — stops the
// scan; the caller decides whether that is a torn tail or corruption.
func scanFrames(f File, firstLSN uint64, fn func(Record) error) (goodEnd int64, lastLSN uint64, err error) {
	size, err := f.Size()
	if err != nil {
		return 0, 0, err
	}
	off := int64(headerSize)
	expect := firstLSN
	var hdr [13]byte
	for {
		if off+frameOverhead > size {
			return off, expect - 1, nil
		}
		if _, err := f.ReadAt(hdr[:4], off); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return off, expect - 1, nil
			}
			return 0, 0, err
		}
		plen := int64(binary.LittleEndian.Uint32(hdr[:4]))
		if plen > MaxPayload || off+frameOverhead+plen > size {
			return off, expect - 1, nil
		}
		body := make([]byte, 9+plen+4)
		if _, err := f.ReadAt(body, off+4); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return off, expect - 1, nil
			}
			return 0, 0, err
		}
		want := binary.LittleEndian.Uint32(body[9+plen:])
		if crc32.Checksum(body[:9+plen], crcTable) != want {
			return off, expect - 1, nil
		}
		lsn := binary.LittleEndian.Uint64(body[0:8])
		if lsn != expect {
			return off, expect - 1, nil
		}
		if fn != nil {
			if err := fn(Record{LSN: lsn, Type: RecordType(body[8]), Payload: body[9 : 9+plen]}); err != nil {
				return 0, 0, err
			}
		}
		off += frameOverhead + plen
		expect++
	}
}

// scanTail finds the durable frontier of the newest segment: the end of its
// valid frame prefix and the last valid LSN. headerOK is false when the
// header itself is mangled (a rotation-interrupted creation).
func scanTail(f File, firstLSN uint64) (goodEnd int64, lastLSN uint64, headerOK bool, err error) {
	ok, err := readHeader(f, firstLSN)
	if err != nil {
		return 0, 0, false, err
	}
	if !ok {
		return headerSize, firstLSN - 1, false, nil
	}
	goodEnd, lastLSN, err = scanFrames(f, firstLSN, nil)
	if err != nil {
		return 0, 0, true, err
	}
	return goodEnd, lastLSN, true, nil
}

// Replay scans every segment in LSN order and calls fn for each record with
// LSN > after. A bad frame or header in the newest segment is the crash tail
// and ends the replay cleanly; anywhere else it fails with ErrCorrupt.
// Returns the last LSN seen (or `after` if none). fn's Record payload is
// only valid during the call.
func Replay(dir string, fsys FS, after uint64, fn func(Record) error) (uint64, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	segs, err := Segments(dir, fsys)
	if err != nil {
		if os.IsNotExist(err) {
			return after, nil
		}
		return after, fmt.Errorf("wal: replay: %w", err)
	}
	last := after
	for i, seg := range segs {
		path := filepath.Join(dir, seg.Name)
		f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
		if err != nil {
			return last, fmt.Errorf("wal: replay: %w", err)
		}
		newest := i == len(segs)-1
		headerOK, err := readHeader(f, seg.FirstLSN)
		if err != nil {
			f.Close()
			return last, fmt.Errorf("wal: replay %s: %w", seg.Name, err)
		}
		if !headerOK {
			f.Close()
			if newest {
				return last, nil
			}
			return last, fmt.Errorf("%w: %s: bad segment header", ErrCorrupt, seg.Name)
		}
		var cbErr error
		goodEnd, lastLSN, err := scanFrames(f, seg.FirstLSN, func(rec Record) error {
			if rec.LSN > after {
				if err := fn(rec); err != nil {
					cbErr = err
					return err
				}
			}
			return nil
		})
		if err != nil {
			f.Close()
			if cbErr != nil {
				return last, cbErr
			}
			return last, fmt.Errorf("wal: replay %s: %w", seg.Name, err)
		}
		size, err := f.Size()
		f.Close()
		if err != nil {
			return last, fmt.Errorf("wal: replay: %w", err)
		}
		if lastLSN >= seg.FirstLSN {
			last = lastLSN
		}
		if goodEnd < size && !newest {
			return last, fmt.Errorf("%w: %s: bad frame at offset %d", ErrCorrupt, seg.Name, goodEnd)
		}
		if !newest && i+1 < len(segs) && segs[i+1].FirstLSN != lastLSN+1 {
			return last, fmt.Errorf("%w: %s ends at LSN %d but %s starts at %d",
				ErrCorrupt, seg.Name, lastLSN, segs[i+1].Name, segs[i+1].FirstLSN)
		}
	}
	return last, nil
}
