// Package raf implements the SPB-tree's random access file: the separate,
// page-based store that holds the actual objects, decoupled from the index
// (Challenge III of the paper). Each record is (id, len, obj); records are
// appended in ascending SFC order at build time so that queries touching
// nearby SFC keys touch nearby RAF pages, which is what makes a small buffer
// cache effective (Section 4.3).
package raf

import (
	"encoding/binary"
	"fmt"
	"sync"

	"spbtree/internal/metric"
	"spbtree/internal/obs"
	"spbtree/internal/page"
)

// headerSize is the per-record header: id (8 bytes) + payload length (4).
const headerSize = 12

// maxPayload bounds a single object's serialized size; larger lengths in a
// header indicate corruption.
const maxPayload = 16 << 20

// File is a random access file of serialized objects over a page store.
// The File must own its store: it assumes pages are allocated densely from
// zero, so byte offset o lives on page o / page.Size.
type File struct {
	store *page.Cache
	codec metric.Codec

	size  uint64 // total bytes appended
	count int    // records appended

	buf     [page.Size]byte // current tail page
	curPage page.ID
	havePg  bool
	pos     int  // write position within buf
	dirty   bool // buf has unflushed bytes

	// tracer, when non-nil, receives one EvRecordRead per decoded record.
	tracer obs.Tracer
}

// SetTracer installs (or, with nil, removes) a tracer receiving one
// structured EvRecordRead event per record decoded by Read. Not synchronized
// with in-flight reads: install tracers before issuing queries.
func (f *File) SetTracer(tr obs.Tracer) { f.tracer = tr }

// New returns an empty RAF on store, decoding objects with codec. Records are
// decoded out of pinned cache frames (page.Cache.Pin), so a store that is not
// already a cache is wrapped in a pass-through one.
func New(store page.Store, codec metric.Codec) *File {
	return &File{store: page.AsCache(store), codec: codec}
}

// metaVersion versions the Meta encoding.
const metaVersion = 1

// Meta returns an opaque snapshot of the file's bookkeeping (byte size and
// record count); persist it alongside the store and pass it to Open.
// Call Flush first.
func (f *File) Meta() []byte {
	b := make([]byte, 0, 17)
	b = append(b, metaVersion)
	b = binary.LittleEndian.AppendUint64(b, f.size)
	b = binary.LittleEndian.AppendUint64(b, uint64(f.count))
	return b
}

// Open reopens a RAF previously persisted to store. If the file ends with a
// partial page, that page is read back so appends can continue in place.
func Open(store page.Store, codec metric.Codec, meta []byte) (*File, error) {
	if len(meta) != 17 {
		return nil, fmt.Errorf("raf: meta is %d bytes, want 17", len(meta))
	}
	if meta[0] != metaVersion {
		return nil, fmt.Errorf("raf: meta version %d, want %d", meta[0], metaVersion)
	}
	f := New(store, codec)
	f.size = binary.LittleEndian.Uint64(meta[1:9])
	f.count = int(binary.LittleEndian.Uint64(meta[9:17]))
	if want := f.PagesUsed(); store.NumPages() < want {
		return nil, fmt.Errorf("raf: store has %d pages, meta needs %d", store.NumPages(), want)
	}
	if rem := int(f.size % page.Size); rem != 0 {
		// Reload the partial tail so future appends extend it.
		f.curPage = page.ID(f.size / page.Size)
		if err := store.Read(f.curPage, f.buf[:]); err != nil {
			return nil, fmt.Errorf("raf: reload tail page: %w", err)
		}
		f.havePg = true
		f.pos = rem
	}
	return f, nil
}

// Append serializes obj at the end of the file and returns its byte offset —
// the ptr stored in B+-tree leaf entries. Writes are buffered per page; call
// Flush after the last Append of a batch.
func (f *File) Append(obj metric.Object) (uint64, error) {
	payload := obj.AppendBinary(nil)
	if len(payload) > maxPayload {
		return 0, fmt.Errorf("raf: object %d payload %d exceeds %d bytes", obj.ID(), len(payload), maxPayload)
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint64(hdr[0:8], obj.ID())
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(payload)))

	offset := f.size
	if err := f.write(hdr[:]); err != nil {
		return 0, err
	}
	if err := f.write(payload); err != nil {
		return 0, err
	}
	f.count++
	return offset, nil
}

// write copies b into the tail buffer, flushing full pages.
func (f *File) write(b []byte) error {
	for len(b) > 0 {
		if !f.havePg {
			id, err := f.store.Alloc()
			if err != nil {
				return fmt.Errorf("raf: alloc: %w", err)
			}
			want := page.ID(f.size / page.Size)
			if id != want {
				return fmt.Errorf("raf: store not exclusively owned: alloc returned page %d, want %d", id, want)
			}
			f.curPage = id
			f.havePg = true
			f.pos = 0
		}
		n := copy(f.buf[f.pos:], b)
		f.pos += n
		f.size += uint64(n)
		f.dirty = true
		b = b[n:]
		if f.pos == page.Size {
			if err := f.store.Write(f.curPage, f.buf[:]); err != nil {
				return fmt.Errorf("raf: flush page: %w", err)
			}
			f.havePg = false
			f.dirty = false
		}
	}
	return nil
}

// Flush writes any partially filled tail page.
func (f *File) Flush() error {
	if !f.dirty {
		return nil
	}
	// Zero the unused remainder so reads of the tail page are deterministic.
	clear(f.buf[f.pos:])
	if err := f.store.Write(f.curPage, f.buf[:]); err != nil {
		return fmt.Errorf("raf: flush: %w", err)
	}
	f.dirty = false
	return nil
}

// Sync flushes any buffered tail page and forces all written pages to
// stable storage. A Flush alone leaves the data in OS buffers; only a
// successful Sync makes the file durable.
func (f *File) Sync() error {
	if err := f.Flush(); err != nil {
		return err
	}
	if err := f.store.Sync(); err != nil {
		return fmt.Errorf("raf: sync: %w", err)
	}
	return nil
}

// Close flushes, syncs and closes the underlying store, so a clean shutdown
// is durable.
func (f *File) Close() error {
	syncErr := f.Sync()
	if err := f.store.Close(); err != nil {
		return fmt.Errorf("raf: close: %w", err)
	}
	return syncErr
}

// Read decodes the record at offset. Each page the record touches is read
// from the underlying store exactly once per call — the header and a payload
// sharing its page cost one page access, not two — so with caching disabled
// the store's counters still measure the paper's PA (pages fetched), and
// with caching enabled the hit/miss accounting above the cache stays
// truthful. Read never mutates the File (an unflushed tail page is served
// from the append buffer), so concurrent Reads are safe as long as no
// Append/Flush runs alongside them — the locking discipline the tree's
// reader-writer lock provides.
func (f *File) Read(offset uint64) (metric.Object, error) {
	obj, _, err := f.read(offset)
	return obj, err
}

// read is Read that also returns the record's payload length.
func (f *File) read(offset uint64) (metric.Object, int, error) {
	pr := pageReader{f: f}
	obj, plen, err := pr.readRecord(offset, nil)
	pr.release()
	if err != nil {
		return nil, 0, err
	}
	f.EmitRecordRead(offset, plen)
	return obj, plen, nil
}

// EmitRecordRead fires the EvRecordRead tracer event for a record
// CopyRecords copied (a no-op without a tracer). A block's records may be
// read and then not used — a kNN block candidate pruned at its commit turn — so the caller
// emits only for those it does use, and traced record reads count the same
// records as reading them one at a time.
func (f *File) EmitRecordRead(offset uint64, payloadLen int) {
	if f.tracer != nil {
		f.tracer.Event(obs.Event{Kind: obs.EvRecordRead, Src: obs.SrcData, Offset: offset, Bytes: int32(payloadLen)})
	}
}

// readRecord decodes one record through r, so batched reads reuse pages
// across records. Header and payload are decoded in place out of the pinned
// frame; only a record that straddles a page boundary is stitched into a
// buffer first. Codecs must not retain the payload (metric.Codec). slot, when
// non-nil, is an object the caller is done with that the codec may decode
// into (metric.DecodeInto).
func (r *pageReader) readRecord(offset uint64, slot metric.Object) (metric.Object, int, error) {
	f := r.f
	if offset+headerSize > f.size {
		return nil, 0, fmt.Errorf("raf: offset %d out of range (size %d)", offset, f.size)
	}
	var hbuf [headerSize]byte
	hdr, err := r.bytes(offset, headerSize, hbuf[:])
	if err != nil {
		return nil, 0, err
	}
	id := binary.LittleEndian.Uint64(hdr[0:8])
	plen, err := f.payloadLen(offset, hdr)
	if err != nil {
		return nil, 0, err
	}
	at := offset + headerSize
	var payload []byte
	if at%page.Size+uint64(plen) <= page.Size {
		payload, err = r.bytes(at, int(plen), nil) // within one page: no copy
	} else {
		bp := stitchPool.Get().(*[]byte)
		defer stitchPool.Put(bp)
		if payload, err = r.bytes(at, int(plen), *bp); err == nil {
			*bp = payload
		}
	}
	if err != nil {
		return nil, 0, err
	}
	obj, err := metric.DecodeInto(f.codec, slot, id, payload)
	if err != nil {
		return nil, 0, fmt.Errorf("raf: decode record at %d: %w", offset, err)
	}
	return obj, int(plen), nil
}

// payloadLen returns the payload length in the header hdr of the record at
// offset, or an error when the record would not fit the file.
func (f *File) payloadLen(offset uint64, hdr []byte) (uint32, error) {
	plen := binary.LittleEndian.Uint32(hdr[8:12])
	if uint64(plen) > maxPayload || offset+headerSize+uint64(plen) > f.size {
		return 0, fmt.Errorf("raf: corrupt record at %d: payload length %d", offset, plen)
	}
	return plen, nil
}

// stitchPool holds the buffers a record that straddles a page boundary is
// assembled in before decoding; codecs do not retain the payload, so a buffer
// goes back as soon as its record is decoded.
var stitchPool = sync.Pool{New: func() any { return new([]byte) }}

// CopyRecords copies the records at offsets as stored, header and payload,
// in the given order: record i goes into place(i, n), which returns the n
// bytes the caller keeps it in. DecodeRecord decodes such a copy. One page
// reader serves the whole call, so consecutive records that share a page
// are copied from a single fetch and offsets in file order read each page
// once: a caller that copies the records it may verify once, and decodes
// them as it needs them, never fetches a page again for them however its
// reads interleave. It fires no tracer events; the caller emits them
// (EmitRecordRead).
//
// On a failure it returns the failing record's index with its error; the
// records before it are copied. Otherwise it returns len(offsets).
func (f *File) CopyRecords(offsets []uint64, place func(i, n int) []byte) (int, error) {
	pr := pageReader{f: f}
	defer pr.release()
	for i, off := range offsets {
		if err := pr.copyRecord(off, i, place); err != nil {
			return i, err
		}
	}
	return len(offsets), nil
}

// RecordPayload returns the ID and the payload of a record CopyRecords
// copied into rec, which starts at its header.
func RecordPayload(rec []byte) (id uint64, payload []byte) {
	plen := binary.LittleEndian.Uint32(rec[8:12])
	return binary.LittleEndian.Uint64(rec[0:8]), rec[headerSize : headerSize+plen]
}

// DecodeRecord decodes the record CopyRecords copied from offset into rec,
// which starts at its header, and returns it with its payload length. slot,
// when non-nil, is an object the caller is done with that the codec may
// decode into (metric.DecodeInto).
func (f *File) DecodeRecord(offset uint64, rec []byte, slot metric.Object) (metric.Object, int, error) {
	id, payload := RecordPayload(rec)
	obj, err := metric.DecodeInto(f.codec, slot, id, payload)
	if err != nil {
		return nil, 0, fmt.Errorf("raf: decode record at %d: %w", offset, err)
	}
	return obj, len(payload), nil
}

// copyRecord copies the record at offset, header and payload, into
// place(i, n); on an error the placed bytes may hold part of it.
func (r *pageReader) copyRecord(offset uint64, i int, place func(i, n int) []byte) error {
	if offset+headerSize > r.f.size {
		return fmt.Errorf("raf: offset %d out of range (size %d)", offset, r.f.size)
	}
	var hbuf [headerSize]byte
	hdr, err := r.bytes(offset, headerSize, hbuf[:])
	if err != nil {
		return err
	}
	plen, err := r.f.payloadLen(offset, hdr)
	if err != nil {
		return err
	}
	n := headerSize + int(plen)
	dst := place(i, n)
	if at := int(offset % page.Size); at+n <= page.Size {
		copy(dst, r.pg[at:]) // on the page hdr came from: one copy
		return nil
	}
	copy(dst, hdr) // hdr may be stitched from two pages: the payload goes on from the second
	return r.copyBytes(dst[headerSize:], offset+headerSize)
}

// pageReader decodes file bytes out of pinned cache frames, keeping the last
// page fetched pinned so consecutive reads on one page never touch the store
// twice. It holds at most one pin, dropped when it moves to another page and
// by release, which every user calls when done.
type pageReader struct {
	f     *File
	id    page.ID
	pg    *[page.Size]byte
	frame *page.Frame // pins pg; nil while pg is the append buffer
}

// release unpins the reader's current page; the reader stays usable.
func (r *pageReader) release() {
	if r.frame != nil {
		r.f.store.Unpin(r.frame)
		r.frame = nil
	}
	r.pg = nil
}

// bytes returns the n file bytes starting at offset: a slice of the pinned
// page when they lie on one page, otherwise stitched into buf (allocated
// when too small). The result is read-only and valid until the next call.
func (r *pageReader) bytes(offset uint64, n int, buf []byte) ([]byte, error) {
	at := int(offset % page.Size)
	if at+n <= page.Size {
		pg, err := r.view(page.ID(offset / page.Size))
		if err != nil {
			return nil, err
		}
		return pg[at : at+n], nil
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if err := r.copyBytes(buf, offset); err != nil {
		return nil, err
	}
	return buf, nil
}

// copyBytes fills dst with the file bytes starting at offset.
func (r *pageReader) copyBytes(dst []byte, offset uint64) error {
	for len(dst) > 0 {
		pg, err := r.view(page.ID(offset / page.Size))
		if err != nil {
			return err
		}
		c := copy(dst, pg[offset%page.Size:])
		dst = dst[c:]
		offset += uint64(c)
	}
	return nil
}

// view returns page id, from the reader's last fetch, the append buffer, or
// the store.
func (r *pageReader) view(id page.ID) (*[page.Size]byte, error) {
	if r.pg != nil && id == r.id {
		return r.pg, nil
	}
	r.release()
	if r.f.dirty && id == r.f.curPage {
		// The tail page still lives in the append buffer; serve it from
		// memory. Bytes past the write position are stale, but every record
		// lies within f.size, which ends at exactly that position, so reads
		// never reach them. Serving the buffer (instead of flushing it)
		// keeps Read free of mutation, which concurrent queries rely on.
		r.id, r.pg = id, &r.f.buf
		return r.pg, nil
	}
	frame, err := r.f.store.Pin(id)
	if err != nil {
		return nil, fmt.Errorf("raf: read page %d: %w", id, err)
	}
	r.id, r.pg, r.frame = id, frame.Data(), frame
	return r.pg, nil
}

// Scan iterates all records in file order, invoking fn with each record's
// offset and object. It stops early if fn returns an error.
func (f *File) Scan(fn func(offset uint64, obj metric.Object) error) error {
	var off uint64
	for i := 0; i < f.count; i++ {
		obj, plen, err := f.read(off)
		if err != nil {
			return err
		}
		if err := fn(off, obj); err != nil {
			return err
		}
		off += headerSize + uint64(plen)
	}
	return nil
}

// Salvage sequentially decodes records from store — without requiring valid
// RAF meta — calling fn with every object that still decodes, and stops at
// the first record it cannot trust: a corrupt page, an implausible header,
// or a payload that fails to decode. size bounds the scan (pass the file's
// byte size when the meta is lost). It returns how many bytes were scanned
// successfully and the error that stopped the scan (nil when size was
// reached). Repair uses it to rebuild an index from a surviving RAF when
// the B+-tree or meta is corrupt.
func Salvage(store page.Store, codec metric.Codec, size uint64, fn func(obj metric.Object)) (scanned uint64, err error) {
	f := &File{store: page.AsCache(store), codec: codec, size: size}
	var off uint64
	for off+headerSize <= size {
		var hbuf [headerSize]byte
		pr := pageReader{f: f}
		hdr, err := pr.bytes(off, headerSize, hbuf[:])
		if err != nil {
			return off, err // a failed fetch leaves nothing pinned
		}
		id := binary.LittleEndian.Uint64(hdr[0:8])
		plen := binary.LittleEndian.Uint32(hdr[8:12])
		pr.release()
		if id == 0 && plen == 0 && off > 0 {
			// Zeroed tail-page padding after the last record.
			return off, nil
		}
		obj, err := f.Read(off)
		if err != nil {
			return off, err
		}
		fn(obj)
		off += headerSize + uint64(plen)
	}
	return off, nil
}

// Count returns the number of records.
func (f *File) Count() int { return f.count }

// Size returns the total bytes appended.
func (f *File) Size() uint64 { return f.size }

// PagesUsed returns the number of pages the file occupies.
func (f *File) PagesUsed() int {
	return int((f.size + page.Size - 1) / page.Size)
}

// ObjectsPerPage returns the paper's f term — the average number of objects
// per RAF page — used by the EPA cost models (eq. 6 and 8).
func (f *File) ObjectsPerPage() float64 {
	p := f.PagesUsed()
	if p == 0 {
		return 0
	}
	return float64(f.count) / float64(p)
}
