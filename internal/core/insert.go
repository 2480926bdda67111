package core

import (
	"errors"
	"fmt"

	"spbtree/internal/bptree"
	"spbtree/internal/metric"
	"spbtree/internal/sfc"
	"spbtree/internal/wal"
)

// ErrNotFound is returned by Delete when the object is not indexed.
var ErrNotFound = errors.New("core: object not found")

// Insert adds one object (paper Appendix C): compute φ(o) and its SFC value
// (|P| distance computations), append the object to the RAF, and insert the
// (SFC, pointer) entry into the B+-tree. Inserted objects land at the RAF
// tail rather than in SFC order; heavy churn therefore degrades clustering
// until the index is rebuilt, the usual bulk-load-plus-deltas trade-off.
//
// On durable trees (CreateDurable/OpenDurable) Insert instead appends a WAL
// record — returning only once the record is durable via group commit — and
// buffers the object in memory until background compaction folds it into
// the base; an insert with an already-live ID replaces that object
// ("upsert"). Either way it returns ErrClosed after Close.
func (t *Tree) Insert(o metric.Object) error {
	if t.dur != nil {
		return t.durableInsert(o)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	n := len(t.pivots)
	vec := make([]float64, n)
	t.phi(o, vec)
	if err := t.validateVec(o, vec); err != nil {
		return err
	}
	cells := make(sfc.Point, n)
	t.cells(vec, cells)

	off, err := t.raf.Append(o)
	if err != nil {
		return err
	}
	if err := t.raf.Flush(); err != nil {
		return err
	}
	if err := t.bpt.Insert(sfc.Pack(cells, t.bits), off); err != nil {
		return err
	}
	t.count++
	t.cm.observeInsert(vec)
	t.cm.markDirty()
	// The approximate graph no longer covers the live set; drop it. (Durable
	// inserts buffer instead and leave the graph valid — queries merge them.)
	t.graph = nil
	return nil
}

// Delete removes the object with o's identity (same φ and ID). The B+-tree
// entry is removed; the RAF record is left unreferenced (the RAF is
// append-only, as in the paper's design where objects are compacted only on
// rebuild).
func (t *Tree) Delete(o metric.Object) error {
	if t.dur != nil {
		return t.durableDelete(o)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	n := len(t.pivots)
	vec := make([]float64, n)
	t.phi(o, vec)
	cells := make(sfc.Point, n)
	t.cells(vec, cells)
	cell := sfc.Pack(cells, t.bits)

	c := t.bpt.Seek(t.curve.EncodeCell(cell))
	for ; c.Valid() && c.Cell() == cell; c.Next() {
		obj, err := t.raf.Read(c.Val())
		if err != nil {
			return err
		}
		if obj.ID() == o.ID() {
			if err := t.bpt.Delete(cell, c.Val()); err != nil {
				if errors.Is(err, bptree.ErrNotFound) {
					return fmt.Errorf("%w: index entry vanished for object %d", ErrNotFound, o.ID())
				}
				return err
			}
			t.count--
			t.cm.markDirty()
			// The approximate graph still references the deleted object's
			// record; drop it so graph queries can never surface the object.
			t.graph = nil
			return nil
		}
	}
	if err := c.Err(); err != nil {
		return err
	}
	return fmt.Errorf("%w: id %d", ErrNotFound, o.ID())
}

// Get retrieves an indexed object by an exemplar with the same φ and ID, or
// ErrNotFound. It exists mainly for tests and tools. On durable trees the
// write buffer is consulted first, so Get sees buffered inserts and respects
// tombstones.
func (t *Tree) Get(o metric.Object) (metric.Object, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return nil, ErrClosed
	}
	n := len(t.pivots)
	vec := make([]float64, n)
	t.phi(o, vec)
	cells := make(sfc.Point, n)
	t.cells(vec, cells)
	cell := sfc.Pack(cells, t.bits)
	if t.wbuf != nil {
		if e, ok := t.wbuf.entries[o.ID()]; ok {
			if e.cell == cell {
				return e.obj, nil
			}
			return nil, fmt.Errorf("%w: id %d", ErrNotFound, o.ID())
		}
		if _, ok := t.wbuf.tombs[o.ID()]; ok {
			return nil, fmt.Errorf("%w: id %d", ErrNotFound, o.ID())
		}
	}
	c := t.bpt.Seek(t.curve.EncodeCell(cell))
	for ; c.Valid() && c.Cell() == cell; c.Next() {
		obj, err := t.raf.Read(c.Val())
		if err != nil {
			return nil, err
		}
		if obj.ID() == o.ID() {
			return obj, nil
		}
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("%w: id %d", ErrNotFound, o.ID())
}

// durableInsert is the WAL-backed Insert: validate and map the object under
// the read lock (queries keep flowing), append the record and block for its
// group commit, then fold it into the write buffer under the write lock.
// The object is durable the moment Append acknowledges — a crash after that
// point replays it on the next OpenDurable.
func (t *Tree) durableInsert(o metric.Object) error {
	t.mu.RLock()
	if t.closed {
		t.mu.RUnlock()
		return ErrClosed
	}
	n := len(t.pivots)
	vec := make([]float64, n)
	t.phi(o, vec)
	if err := t.validateVec(o, vec); err != nil {
		t.mu.RUnlock()
		return err
	}
	cells := make(sfc.Point, n)
	t.cells(vec, cells)
	cell := sfc.Pack(cells, t.bits)
	d := t.dur
	t.mu.RUnlock()

	// The inflight fence spans LSN allocation through write-buffer apply, so
	// a compaction snapshot never observes a gap below its watermark (see
	// durableState.inflight).
	d.inflight.RLock()
	defer d.inflight.RUnlock()
	lsn, err := d.log.Append(wal.RecInsert, encodeInsertPayload(o, cell))
	if err != nil {
		if errors.Is(err, wal.ErrClosed) {
			return ErrClosed
		}
		return err
	}

	t.mu.Lock()
	if t.closed {
		// The record is durable (Append succeeded before the log closed) but
		// the in-memory tree is being torn down: report ErrClosed; replay
		// applies the record on the next open.
		t.mu.Unlock()
		return ErrClosed
	}
	if err := t.applyInsertLocked(o, cell, lsn); err != nil {
		t.mu.Unlock()
		return err
	}
	t.cm.observeInsert(vec)
	t.cm.markDirty()
	size := t.deltaSize()
	t.mu.Unlock()
	d.maybeCompact(size)
	return nil
}

// durableDelete is the WAL-backed Delete: existence is checked up front so
// deleting a missing object fails without a WAL record; racing deletes of
// the same ID may both pass the check and log two tombstones, which apply
// (and replay) idempotently.
func (t *Tree) durableDelete(o metric.Object) error {
	t.mu.RLock()
	if t.closed {
		t.mu.RUnlock()
		return ErrClosed
	}
	n := len(t.pivots)
	vec := make([]float64, n)
	t.phi(o, vec)
	cells := make(sfc.Point, n)
	t.cells(vec, cells)
	cell := sfc.Pack(cells, t.bits)
	id := o.ID()
	exists := false
	if _, ok := t.wbuf.entries[id]; ok {
		exists = true
	} else if _, ok := t.wbuf.tombs[id]; !ok {
		var err error
		exists, err = t.baseHasLocked(cell, id)
		if err != nil {
			t.mu.RUnlock()
			return err
		}
	}
	d := t.dur
	t.mu.RUnlock()
	if !exists {
		return fmt.Errorf("%w: id %d", ErrNotFound, id)
	}

	// Same inflight fence as durableInsert: no unapplied LSN may sit below a
	// compaction snapshot's watermark.
	d.inflight.RLock()
	defer d.inflight.RUnlock()
	lsn, err := d.log.Append(wal.RecDelete, encodeDeletePayload(id, cell))
	if err != nil {
		if errors.Is(err, wal.ErrClosed) {
			return ErrClosed
		}
		return err
	}

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	if err := t.applyDeleteLocked(id, cell, lsn); err != nil {
		t.mu.Unlock()
		return err
	}
	t.cm.markDirty()
	size := t.deltaSize()
	t.mu.Unlock()
	d.maybeCompact(size)
	return nil
}
