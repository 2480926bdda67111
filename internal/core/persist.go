package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"spbtree/internal/bptree"
	"spbtree/internal/metric"
	"spbtree/internal/page"
	"spbtree/internal/raf"
	"spbtree/internal/sfc"
)

// treeMetaVersion versions the WriteMeta encoding. Version 2 added the page
// checksum tables and the checksummed footer.
const treeMetaVersion = 2

// ErrCorruptMeta is the sentinel all meta validation failures wrap: a
// missing or mismatched footer, a bad checksum, an unsupported version, or
// a truncated or internally inconsistent payload. Open never decodes
// garbage — it fails with an error matching this sentinel instead.
var ErrCorruptMeta = errors.New("core: corrupt meta")

// metaMagic marks the checksummed footer: payload || magic || u32 payload
// length || u32 CRC32-C(payload). The footer sits at the end so WriteMeta
// can stream the payload and so truncations are always detectable.
var metaMagic = [4]byte{'S', 'P', 'B', 'M'}

// appendMetaFooter stamps the footer over payload.
func appendMetaFooter(payload []byte) []byte {
	b := append(payload, metaMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(b, page.Checksum(payload))
}

// checkMetaFooter validates the footer and returns the payload it covers.
func checkMetaFooter(raw []byte) ([]byte, error) {
	const footerSize = 12
	if len(raw) < footerSize {
		return nil, fmt.Errorf("%w: %d bytes, no room for footer", ErrCorruptMeta, len(raw))
	}
	foot := raw[len(raw)-footerSize:]
	if [4]byte(foot[0:4]) != metaMagic {
		return nil, fmt.Errorf("%w: footer magic %q", ErrCorruptMeta, foot[0:4])
	}
	payload := raw[:len(raw)-footerSize]
	if n := binary.LittleEndian.Uint32(foot[4:8]); int(n) != len(payload) {
		return nil, fmt.Errorf("%w: footer says %d payload bytes, have %d", ErrCorruptMeta, n, len(payload))
	}
	if want, got := binary.LittleEndian.Uint32(foot[8:12]), page.Checksum(payload); got != want {
		return nil, fmt.Errorf("%w: payload checksum %08x, footer records %08x", ErrCorruptMeta, got, want)
	}
	return payload, nil
}

// WriteMeta serializes everything needed to reopen the tree against its two
// page stores: the pivot table, both stores' page checksum tables, the
// B+-tree and RAF bookkeeping, and the cost-model distributions — followed
// by a checksummed footer so that any truncation or bit flip of the blob is
// detected by Open. Pair it with persistent stores (page.FileStore) and
// Open, or use SaveAtomic for a crash-safe on-disk layout. It flushes the
// RAF's tail page first, under the write lock.
func (t *Tree) WriteMeta(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.raf.Flush(); err != nil {
		return err
	}
	var b []byte
	b = append(b, treeMetaVersion)
	b = append(b, byte(t.kind))
	b = append(b, byte(t.bits))
	if t.exact {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	// Two reserved bytes: they held flags that switched off Lemma 2 and the
	// computeSFC merge, which never changed an answer. Open skips them.
	b = append(b, 0, 0)
	b = appendF64(b, t.delta)
	b = appendF64(b, t.dPlus)
	b = binary.LittleEndian.AppendUint64(b, uint64(t.count))

	// Pivot table: id + payload per pivot.
	b = binary.LittleEndian.AppendUint32(b, uint32(len(t.pivots)))
	for _, p := range t.pivots {
		payload := p.AppendBinary(nil)
		b = binary.LittleEndian.AppendUint64(b, p.ID())
		b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
		b = append(b, payload...)
	}

	// Page checksum tables, ahead of the substrate bookkeeping so Open can
	// arm validation before the RAF's tail-page reload reads anything.
	im := t.idxSums.Meta()
	b = binary.LittleEndian.AppendUint32(b, uint32(len(im)))
	b = append(b, im...)
	dm := t.dataSums.Meta()
	b = binary.LittleEndian.AppendUint32(b, uint32(len(dm)))
	b = append(b, dm...)

	// Substrate bookkeeping.
	bm := t.bpt.Meta()
	b = binary.LittleEndian.AppendUint32(b, uint32(len(bm)))
	b = append(b, bm...)
	rm := t.raf.Meta()
	b = binary.LittleEndian.AppendUint32(b, uint32(len(rm)))
	b = append(b, rm...)

	// Cost model distributions.
	b = appendF64(b, t.cm.precision)
	b = appendF64s(b, t.cm.pairDists)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(t.cm.vecs)))
	for _, v := range t.cm.vecs {
		b = appendF64s(b, v)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(t.cm.hists)))
	for _, h := range t.cm.hists {
		b = appendF64(b, h.width)
		b = binary.LittleEndian.AppendUint64(b, uint64(h.total))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(h.bins)))
		for _, c := range h.bins {
			b = binary.LittleEndian.AppendUint64(b, uint64(c))
		}
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(t.cm.seen))

	_, err := w.Write(appendMetaFooter(b))
	return err
}

// OpenOptions configures Open.
type OpenOptions struct {
	// Distance and Codec must match the tree's build-time configuration;
	// required.
	Distance metric.DistanceFunc
	Codec    metric.Codec
	// IndexStore and DataStore are the persisted page stores; required.
	IndexStore, DataStore page.Store
	// CacheSize is the buffer-cache capacity (default 32; negative
	// disables).
	CacheSize int
}

// Open reopens a tree persisted with WriteMeta.
func Open(meta io.Reader, opts OpenOptions) (*Tree, error) {
	if opts.Distance == nil || opts.Codec == nil {
		return nil, fmt.Errorf("core: OpenOptions.Distance and Codec are required")
	}
	if opts.IndexStore == nil || opts.DataStore == nil {
		return nil, fmt.Errorf("core: OpenOptions.IndexStore and DataStore are required")
	}
	raw, err := io.ReadAll(meta)
	if err != nil {
		return nil, fmt.Errorf("core: read meta: %w", err)
	}
	payload, err := checkMetaFooter(raw)
	if err != nil {
		return nil, err
	}
	r := &metaReader{b: payload}
	if v := r.u8(); v != treeMetaVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrCorruptMeta, v, treeMetaVersion)
	}
	t := &Tree{
		id:      treeIDs.Add(1),
		dist:    metric.NewCounter(opts.Distance),
		codec:   opts.Codec,
		bounded: metric.IsBounded(opts.Distance),
	}
	t.kind = sfc.Kind(r.u8())
	t.bits = int(r.u8())
	t.exact = r.u8() == 1
	r.u8() // two reserved bytes (see WriteMeta)
	r.u8()
	t.delta = r.f64()
	t.dPlus = r.f64()
	t.count = int(r.u64())

	nPivots := int(r.u32())
	if r.err == nil && (nPivots <= 0 || nPivots > 64) {
		return nil, fmt.Errorf("%w: %d pivots", ErrCorruptMeta, nPivots)
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: truncated", ErrCorruptMeta)
	}
	t.pivots = make([]metric.Object, nPivots)
	for i := range t.pivots {
		id := r.u64()
		pl := r.bytes(int(r.u32()))
		if r.err != nil {
			return nil, fmt.Errorf("%w: truncated pivot table", ErrCorruptMeta)
		}
		obj, err := opts.Codec.Decode(id, pl)
		if err != nil {
			return nil, fmt.Errorf("%w: decode pivot %d: %v", ErrCorruptMeta, i, err)
		}
		t.pivots[i] = obj
	}
	t.curve = sfc.New(t.kind, nPivots, t.bits)

	cacheSize := opts.CacheSize
	if cacheSize == 0 {
		cacheSize = 32
	}
	if cacheSize < 0 {
		cacheSize = 0
	}
	t.idxSums = page.NewChecksumStore(opts.IndexStore)
	t.dataSums = page.NewChecksumStore(opts.DataStore)
	t.idxCache = page.NewCache(t.idxSums, cacheSize)
	t.dataCache = page.NewCache(t.dataSums, cacheSize)

	im := r.bytes(int(r.u32()))
	if r.err != nil {
		return nil, fmt.Errorf("%w: truncated index checksum table", ErrCorruptMeta)
	}
	if err := t.idxSums.LoadMeta(im); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptMeta, err)
	}
	dm := r.bytes(int(r.u32()))
	if r.err != nil {
		return nil, fmt.Errorf("%w: truncated data checksum table", ErrCorruptMeta)
	}
	if err := t.dataSums.LoadMeta(dm); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptMeta, err)
	}

	bm := r.bytes(int(r.u32()))
	if r.err != nil {
		return nil, fmt.Errorf("%w: truncated B+-tree meta", ErrCorruptMeta)
	}
	t.bpt, err = bptree.Open(t.idxCache, bptree.Options{Geometry: t.curve}, bm)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptMeta, err)
	}
	rm := r.bytes(int(r.u32()))
	if r.err != nil {
		return nil, fmt.Errorf("%w: truncated RAF meta", ErrCorruptMeta)
	}
	t.raf, err = raf.Open(t.dataCache, t.codec, rm)
	if err != nil {
		return nil, err
	}

	t.cm.init(nPivots, t.dPlus, 1)
	t.cm.cellWidth = t.delta
	t.cm.precision = r.f64()
	t.cm.pairDists = r.f64s()
	nVecs := int(r.u32())
	if r.err != nil || nVecs < 0 || nVecs > 1<<20 {
		return nil, fmt.Errorf("%w: truncated cost-model sample", ErrCorruptMeta)
	}
	t.cm.vecs = make([][]float64, nVecs)
	for i := range t.cm.vecs {
		t.cm.vecs[i] = r.f64s()
	}
	nHists := int(r.u32())
	if r.err != nil || nHists != nPivots {
		return nil, fmt.Errorf("%w: %d histograms for %d pivots", ErrCorruptMeta, nHists, nPivots)
	}
	t.cm.hists = make([]histogram, nHists)
	for i := range t.cm.hists {
		h := &t.cm.hists[i]
		h.width = r.f64()
		h.total = int(r.u64())
		nBins := int(r.u32())
		if r.err != nil || nBins < 0 || nBins > 1<<20 {
			return nil, fmt.Errorf("%w: histogram %d has %d bins", ErrCorruptMeta, i, nBins)
		}
		h.bins = make([]int, nBins)
		for j := range h.bins {
			h.bins[j] = int(r.u64())
		}
	}
	t.cm.seen = int(r.u64())
	if r.err != nil {
		return nil, fmt.Errorf("%w: truncated", ErrCorruptMeta)
	}
	if err := t.cm.snapshotBoxes(t); err != nil {
		return nil, err
	}
	return t, nil
}

// --- little helpers ---------------------------------------------------------

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendF64s(b []byte, vs []float64) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendF64(b, v)
	}
	return b
}

// metaReader is a bounds-checked sequential decoder; after any short read it
// sticks in the error state and returns zero values.
type metaReader struct {
	b   []byte
	off int
	err error
}

func (r *metaReader) take(n int) []byte {
	if r.err != nil || r.off+n > len(r.b) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *metaReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *metaReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *metaReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *metaReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *metaReader) bytes(n int) []byte {
	if n < 0 || n > len(r.b) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	b := r.take(n)
	return bytes.Clone(b)
}

func (r *metaReader) f64s() []float64 {
	n := int(r.u32())
	if r.err != nil || n < 0 || n > 1<<20 {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.f64()
	}
	return out
}
