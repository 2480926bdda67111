package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"spbtree/internal/metric"
	"spbtree/internal/page"
	"spbtree/internal/wal"
)

// ErrClosed matches (errors.Is) operations attempted on a closed tree, and
// mutators that were still pending when Close ran. A mutation rejected with
// ErrClosed after its WAL append already succeeded is still durable — it
// reappears via replay on the next OpenDurable — the usual
// commit-during-shutdown ambiguity of any logged system.
var ErrClosed = errors.New("core: tree closed")

// Canonical names inside a durable directory (DESIGN.md §11).
const (
	// CurrentFile points at the live generation directory.
	CurrentFile = "CURRENT"
	// currentTmpFile is CURRENT's staging name under WriteFileAtomic; a crash
	// can leave one behind, and OpenDurable sweeps it.
	currentTmpFile = CurrentFile + tmpSuffix
	// WALDir holds the write-ahead log segments.
	WALDir = "wal"
	// AppliedLSNFile records, inside a generation directory, the WAL
	// watermark folded into that generation's base tree.
	AppliedLSNFile = "applied.lsn"
	// genPrefix names generation directories: gen-%06d.
	genPrefix = "gen-"
)

// defaultCompactThreshold triggers background compaction once the write
// buffer holds this many mutations.
const defaultCompactThreshold = 4096

// DurableOptions configures the write path of CreateDurable/OpenDurable.
type DurableOptions struct {
	// CompactThreshold is the write-buffer size (buffered inserts +
	// tombstones) at which background compaction starts folding the delta
	// into a fresh base generation. 0 selects 4096; negative disables
	// automatic compaction (CompactNow still works).
	CompactThreshold int
	// NoSync makes WAL group commits skip their fsync: acknowledged writes
	// are crash-unsafe. For benchmarks quantifying the cost of durability.
	NoSync bool
	// FS substitutes the WAL's filesystem, for fault injection in tests. nil
	// selects the host filesystem. The page stores and generation files
	// always use the host filesystem.
	FS wal.FS
}

// durableState is the per-tree write-path machinery: the WAL, the
// generation bookkeeping, and the background compactor.
type durableState struct {
	dir  string
	opts DurableOptions
	log  *wal.Log

	// gen and applied are guarded by the tree's mu (written only under the
	// write lock in compactOnce's swap phase).
	gen     uint64
	applied uint64

	// inflight fences the gap between a mutation's WAL acknowledgement (its
	// LSN is allocated) and its application to the write buffer. Mutators hold
	// it shared across Append+apply; compactOnce holds it exclusively while
	// snapshotting, so the snapshot's high-water LSN never has an unapplied
	// LSN below it. Without the fence, a writer assigned LSN L could be outrun
	// by one assigned L+1: the snapshot would set highLSN = L+1, the swap
	// would prune entry L as "at or below the watermark" without it ever
	// reaching the new base, and an acknowledged write would be lost (the
	// persisted applied.lsn would likewise skip it on replay).
	inflight sync.RWMutex

	// compactMu serializes compaction runs (the background goroutine and
	// explicit CompactNow calls).
	compactMu sync.Mutex
	compactCh chan struct{}
	done      chan struct{}
	wg        sync.WaitGroup

	// Test hooks simulating a crash just before / just after the CURRENT
	// rename: when set and returning an error, compactOnce aborts there.
	hookBeforeCurrent func() error
	hookAfterCurrent  func() error
}

// genName formats a generation directory name.
func genName(gen uint64) string { return fmt.Sprintf("%s%06d", genPrefix, gen) }

// writeCurrent atomically points dir/CURRENT at the given generation
// (WriteFileAtomic). After it returns, reopening the directory loads that
// generation.
func writeCurrent(dir string, gen uint64) error {
	if err := WriteFileAtomic(filepath.Join(dir, CurrentFile), []byte(genName(gen)+"\n")); err != nil {
		return fmt.Errorf("core: write CURRENT: %w", err)
	}
	return nil
}

// readCurrent reads which generation dir/CURRENT points at.
func readCurrent(dir string) (uint64, error) {
	raw, err := os.ReadFile(filepath.Join(dir, CurrentFile))
	if err != nil {
		return 0, err
	}
	name := strings.TrimSpace(string(raw))
	if !strings.HasPrefix(name, genPrefix) {
		return 0, fmt.Errorf("core: CURRENT names %q, want %s*", name, genPrefix)
	}
	var gen uint64
	if _, err := fmt.Sscanf(name[len(genPrefix):], "%d", &gen); err != nil || gen == 0 {
		return 0, fmt.Errorf("core: CURRENT names %q: bad generation", name)
	}
	return gen, nil
}

// writeAppliedLSN records the WAL watermark inside a generation directory,
// footer-checksummed like the tree meta. Atomicity is not needed — the file
// is written before CURRENT makes the generation reachable — but durability
// is, and WriteFileAtomic is the one way files are made durable here.
func writeAppliedLSN(genDir string, lsn uint64) error {
	payload := appendMetaFooter(binary.LittleEndian.AppendUint64(nil, lsn))
	if err := WriteFileAtomic(filepath.Join(genDir, AppliedLSNFile), payload); err != nil {
		return fmt.Errorf("core: write applied.lsn: %w", err)
	}
	return nil
}

// readAppliedLSN reads a generation's WAL watermark.
func readAppliedLSN(genDir string) (uint64, error) {
	raw, err := os.ReadFile(filepath.Join(genDir, AppliedLSNFile))
	if err != nil {
		return 0, err
	}
	payload, err := checkMetaFooter(raw)
	if err != nil {
		return 0, fmt.Errorf("core: applied.lsn: %w", err)
	}
	if len(payload) != 8 {
		return 0, fmt.Errorf("%w: applied.lsn payload is %d bytes, want 8", ErrCorruptMeta, len(payload))
	}
	return binary.LittleEndian.Uint64(payload), nil
}

// CreateDurable builds a fresh durable tree over objects at dir: generation
// 1 holds the bulk-loaded base (via Build + SaveAtomic), CURRENT points at
// it, and an empty WAL absorbs subsequent writes. opts must not supply page
// stores — the generation layout owns them.
func CreateDurable(dir string, objects []metric.Object, opts Options, dopts DurableOptions) (*Tree, error) {
	if opts.IndexStore != nil || opts.DataStore != nil {
		return nil, fmt.Errorf("core: CreateDurable manages its own page stores; leave Options.IndexStore/DataStore nil")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: create durable: %w", err)
	}
	const gen = 1
	genDir := filepath.Join(dir, genName(gen))
	if err := os.MkdirAll(genDir, 0o755); err != nil {
		return nil, fmt.Errorf("core: create durable: %w", err)
	}
	idx, err := page.NewFileStore(filepath.Join(genDir, IndexPagesFile))
	if err != nil {
		return nil, err
	}
	data, err := page.NewFileStore(filepath.Join(genDir, DataPagesFile))
	if err != nil {
		idx.Close()
		return nil, err
	}
	opts.IndexStore, opts.DataStore = idx, data
	t, err := Build(objects, opts)
	if err != nil {
		idx.Close()
		data.Close()
		return nil, err
	}
	if err := t.SaveAtomic(genDir); err != nil {
		t.Close()
		return nil, err
	}
	if err := writeAppliedLSN(genDir, 0); err != nil {
		t.Close()
		return nil, err
	}
	if err := writeCurrent(dir, gen); err != nil {
		t.Close()
		return nil, err
	}
	log, err := wal.Open(filepath.Join(dir, WALDir), wal.Options{
		FS: dopts.FS, NoSync: dopts.NoSync,
	})
	if err != nil {
		t.Close()
		return nil, err
	}
	t.attachDurable(dir, gen, 0, log, dopts)
	return t, nil
}

// OpenDurable reopens a durable directory: load the CURRENT generation,
// replay the WAL tail beyond its applied watermark into the write buffer
// (recovering every acknowledged write), truncate any torn WAL tail, sweep
// generations orphaned by a mid-compaction crash, and restart the
// compactor. Corruption outside the legal crash window (a bad frame below
// the WAL tail, a bad meta) fails with a typed error instead of opening a
// wrong tree.
func OpenDurable(dir string, lopts LoadOptions, dopts DurableOptions) (*Tree, error) {
	gen, err := readCurrent(dir)
	if err != nil {
		return nil, fmt.Errorf("core: open durable: %w", err)
	}
	genDir := filepath.Join(dir, genName(gen))
	t, err := Load(genDir, lopts)
	if err != nil {
		return nil, err
	}
	applied, err := readAppliedLSN(genDir)
	if err != nil {
		t.Close()
		return nil, err
	}
	t.wbuf = newDeltaState()
	walDir := filepath.Join(dir, WALDir)
	// Replay is single-threaded on a tree nobody else can see yet, so the
	// *Locked apply helpers run without the lock.
	_, err = wal.Replay(walDir, dopts.FS, applied, func(rec wal.Record) error {
		switch rec.Type {
		case wal.RecInsert:
			obj, cell, err := decodeInsertPayload(t.codec, rec.Payload)
			if err != nil {
				return err
			}
			return t.applyInsertLocked(obj, cell, rec.LSN)
		case wal.RecDelete:
			id, cell, err := decodeDeletePayload(rec.Payload)
			if err != nil {
				return err
			}
			return t.applyDeleteLocked(id, cell, rec.LSN)
		default:
			return fmt.Errorf("core: wal replay: unknown record type %d at LSN %d", rec.Type, rec.LSN)
		}
	})
	if err != nil {
		t.Close()
		return nil, err
	}
	log, err := wal.Open(walDir, wal.Options{
		FS: dopts.FS, NoSync: dopts.NoSync,
	})
	if err != nil {
		t.Close()
		return nil, err
	}
	// Sweep generations a crashed compaction left behind: a newer one that
	// never reached its CURRENT rename, or an older one whose removal did
	// not complete.
	if ents, err := os.ReadDir(dir); err == nil {
		for _, e := range ents {
			if e.IsDir() && strings.HasPrefix(e.Name(), genPrefix) && e.Name() != genName(gen) {
				os.RemoveAll(filepath.Join(dir, e.Name()))
			}
		}
		os.Remove(filepath.Join(dir, currentTmpFile))
	}
	// A crash between the CURRENT rename and the WAL checkpoint leaves
	// segments fully below the watermark; retire them now.
	if err := log.Checkpoint(applied); err != nil {
		log.Close()
		t.Close()
		return nil, err
	}
	t.attachDurable(dir, gen, applied, log, dopts)
	// Recovery may have replayed a large tail straight into the buffer.
	t.dur.maybeCompact(t.deltaSize())
	return t, nil
}

// attachDurable arms the write path on a freshly built/loaded tree and
// starts the compactor goroutine.
func (t *Tree) attachDurable(dir string, gen, applied uint64, log *wal.Log, dopts DurableOptions) {
	if dopts.CompactThreshold == 0 {
		dopts.CompactThreshold = defaultCompactThreshold
	}
	if t.wbuf == nil {
		t.wbuf = newDeltaState()
	}
	d := &durableState{
		dir:  dir,
		opts: dopts,
		log:  log,
		gen:  gen, applied: applied,
		compactCh: make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	t.dur = d
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		for {
			select {
			case <-d.done:
				return
			case <-d.compactCh:
				// Background best-effort: a failed attempt is retried on the
				// next trigger; CompactNow surfaces errors to callers.
				d.compactOnce(t)
			}
		}
	}()
}

// maybeCompact nudges the compactor when the buffer crossed the threshold.
// Non-blocking: if a run is already queued or active, the nudge coalesces.
func (d *durableState) maybeCompact(size int) {
	if d.opts.CompactThreshold < 0 || size < d.opts.CompactThreshold {
		return
	}
	select {
	case d.compactCh <- struct{}{}:
	default:
	}
}

// CompactNow synchronously folds the write buffer into a fresh base
// generation (see compactOnce) regardless of the threshold. It errors on
// non-durable trees.
func (t *Tree) CompactNow() error {
	if t.dur == nil {
		return fmt.Errorf("core: CompactNow: not a durable tree")
	}
	return t.dur.compactOnce(t)
}

// WALStats reports the WAL's group-commit counters; ok is false for
// non-durable trees.
func (t *Tree) WALStats() (s wal.Stats, ok bool) {
	if t.dur == nil {
		return wal.Stats{}, false
	}
	return t.dur.log.Stats(), true
}

// DeltaLen reports how many buffered mutations (inserts + tombstones) await
// compaction. Zero for non-durable trees.
func (t *Tree) DeltaLen() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.deltaSize()
}

// Durable reports whether the tree runs the WAL-backed write path.
func (t *Tree) Durable() bool { return t.dur != nil }

// HoldCompaction blocks background and explicit compaction until the
// returned release function is called. While held, the generation directory
// and WAL segment set are frozen on disk (appends still go to the newest WAL
// segment unless the caller also stops mutations), which is what shard
// handoff needs to copy a consistent durable directory out from under a live
// tree. The release function is idempotent, and it MUST be called before
// Close — the compactor goroutine Close joins could otherwise be parked on
// the held lock. Errors on non-durable trees.
func (t *Tree) HoldCompaction() (release func(), err error) {
	if t.dur == nil {
		return nil, fmt.Errorf("core: HoldCompaction: not a durable tree")
	}
	t.dur.compactMu.Lock()
	var once sync.Once
	return func() { once.Do(t.dur.compactMu.Unlock) }, nil
}

// compactOnce folds the write buffer into a fresh base generation. The
// state machine (DESIGN.md §11):
//
//  1. snapshot, under the read lock: the live object set (base minus
//     shadowed, plus buffered inserts), the high watermark LSN, and the
//     cost-model distributions;
//  2. build, off-lock: bulk-load fresh substrates in exact SFC order into
//     gen-(N+1) file stores and SaveAtomic the meta — queries and mutators
//     proceed concurrently against the old generation;
//  3. publish: write applied.lsn = watermark, then atomically repoint
//     CURRENT (the durability flip: a crash before the rename recovers into
//     the old generation, after it into the new — both exact);
//  4. swap, under the write lock: switch the substrates in, prune every
//     buffered mutation at or below the watermark (later ones stay and keep
//     shadowing), recompute the live count from the snapshot;
//  5. retire: checkpoint the WAL up to the watermark and remove the old
//     generation. A crash here is healed by OpenDurable's sweep.
func (d *durableState) compactOnce(t *Tree) error {
	d.compactMu.Lock()
	defer d.compactMu.Unlock()

	// Phase 1: snapshot under the read lock.
	// The exclusive inflight acquisition drains every mutator sitting between
	// its WAL acknowledgement and its write-buffer apply: once it is held,
	// every allocated LSN is visible in wbuf, so max(wbuf LSNs) is a gap-free
	// watermark. New mutators block at the fence (not holding t.mu), so the
	// read lock below cannot deadlock against them.
	d.inflight.Lock()
	t.mu.RLock()
	snapDone := func() {
		t.mu.RUnlock()
		d.inflight.Unlock()
	}
	if t.closed {
		snapDone()
		return ErrClosed
	}
	if !t.deltaActive() {
		snapDone()
		return nil
	}
	var highLSN uint64
	for _, e := range t.wbuf.entries {
		if e.lsn > highLSN {
			highLSN = e.lsn
		}
	}
	for _, lsn := range t.wbuf.tombs {
		if lsn > highLSN {
			highLSN = lsn
		}
	}
	var live []keyed
	c := t.bpt.SeekFirst()
	for ; c.Valid(); c.Next() {
		obj, err := t.raf.Read(c.Val())
		if err != nil {
			snapDone()
			return err
		}
		if t.deltaShadowed(obj.ID()) {
			continue
		}
		live = append(live, keyed{key: c.Key(), cell: c.Cell(), obj: obj})
	}
	if err := c.Err(); err != nil {
		snapDone()
		return err
	}
	for _, e := range t.wbuf.entries {
		live = append(live, keyed{key: t.curve.EncodeCell(e.cell), cell: e.cell, obj: e.obj})
	}
	countSnap := t.count
	cmSnap := t.cm.snapshot()
	idxCap, dataCap := t.idxCache.Capacity(), t.dataCache.Capacity()
	snapDone()

	sortKeyed(live)

	// Phase 2: build the next generation off-lock.
	newGen := d.gen + 1
	genDir := filepath.Join(d.dir, genName(newGen))
	os.RemoveAll(genDir) // leftover from an earlier crashed/failed attempt
	if err := os.MkdirAll(genDir, 0o755); err != nil {
		return fmt.Errorf("core: compact: %w", err)
	}
	idxStore, err := page.NewFileStore(filepath.Join(genDir, IndexPagesFile))
	if err != nil {
		return err
	}
	dataStore, err := page.NewFileStore(filepath.Join(genDir, DataPagesFile))
	if err != nil {
		idxStore.Close()
		return err
	}
	fail := func(err error) error {
		idxStore.Close()
		dataStore.Close()
		os.RemoveAll(genDir)
		return err
	}
	sub, err := bulkLoad(idxStore, dataStore, idxCap, dataCap, t.curve, t.codec, live)
	if err != nil {
		return fail(err)
	}
	// A shadow tree over the new substrates gives SaveAtomic/WriteMeta the
	// exact layout Load expects; its count is the snapshot's live total and
	// its cost model the snapshot copy.
	shadow := &Tree{
		codec: t.codec, pivots: t.pivots, curve: t.curve, kind: t.kind,
		delta: t.delta, exact: t.exact, bits: t.bits, dPlus: t.dPlus, cm: cmSnap,
	}
	shadow.adopt(sub, len(live))
	if err := shadow.SaveAtomic(genDir); err != nil {
		return fail(err)
	}
	if err := writeAppliedLSN(genDir, highLSN); err != nil {
		return fail(err)
	}

	// Phase 3: publish.
	if d.hookBeforeCurrent != nil {
		if err := d.hookBeforeCurrent(); err != nil {
			return fail(err)
		}
	}
	if err := writeCurrent(d.dir, newGen); err != nil {
		return fail(err)
	}
	if d.hookAfterCurrent != nil {
		if err := d.hookAfterCurrent(); err != nil {
			// Past the rename the new generation IS the durable truth; do
			// not delete it. The in-memory swap simply has not happened.
			idxStore.Close()
			dataStore.Close()
			return err
		}
	}

	// Phase 4: swap under the write lock.
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		idxStore.Close()
		dataStore.Close()
		return ErrClosed
	}
	oldIdxCache, oldDataCache := t.idxCache, t.dataCache
	oldGen := d.gen
	// The snapshot's live total plus whatever the post-snapshot mutations
	// contributed incrementally.
	t.adopt(sub, len(live)+(t.count-countSnap))
	// Mutations applied while phases 2–3 ran stay buffered (their LSNs are
	// above the watermark) and keep shadowing the new base; everything at or
	// below it is now base state.
	for id, e := range t.wbuf.entries {
		if e.lsn <= highLSN {
			delete(t.wbuf.entries, id)
		}
	}
	for id, lsn := range t.wbuf.tombs {
		if lsn <= highLSN {
			delete(t.wbuf.tombs, id)
		}
	}
	d.gen = newGen
	d.applied = highLSN
	t.cm.markDirty()
	// The approximate graph indexed the old generation's offsets; drop it.
	// (Buffered writes never invalidate the graph — queries merge them — so
	// this swap is the only point a durable tree loses its graph.)
	t.graph = nil
	t.wireTracer()
	t.mu.Unlock()
	oldIdxCache.Close()
	oldDataCache.Close()

	// Phase 5: retire the log prefix and the old generation.
	if err := d.log.Checkpoint(highLSN); err != nil {
		return err
	}
	os.RemoveAll(filepath.Join(d.dir, genName(oldGen)))
	return syncDir(d.dir)
}
