package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"spbtree/internal/metric"
)

// deltaState is the in-memory write buffer of a durable tree (DESIGN.md
// §11): recent inserts and delete tombstones keyed by object ID, absorbed
// without touching the base tree's substrates. Reads merge it with the base
// so query results are identical to a tree freshly rebuilt over the live
// object set; compaction folds it into a new base and prunes it.
//
// Both maps are guarded by Tree.mu: mutators update them under the write
// lock, queries read them under the read lock they already hold.
type deltaState struct {
	// entries holds buffered inserts. An entry shadows any base object with
	// the same ID (inserts are upserts by ID).
	entries map[uint64]deltaEntry
	// tombs holds delete tombstones: ID → LSN of the delete. A tombstone
	// shadows base objects and wins over older buffered inserts.
	tombs map[uint64]uint64
}

// deltaEntry is one buffered insert.
type deltaEntry struct {
	// obj is the live object.
	obj metric.Object
	// cell is its cell word (sfc.Pack of its quantized pivot distances),
	// computed once at append time or replay; reads unpack it.
	cell uint64
	// lsn is the WAL position that made it durable; last-writer-wins ties
	// between racing mutators are resolved by it so in-memory apply order
	// always matches WAL replay order.
	lsn uint64
}

// newDeltaState returns an empty write buffer.
func newDeltaState() *deltaState {
	return &deltaState{entries: make(map[uint64]deltaEntry), tombs: make(map[uint64]uint64)}
}

// deltaActive reports whether the write buffer holds anything a read must
// merge. Callers hold t.mu (either mode).
func (t *Tree) deltaActive() bool {
	return t.wbuf != nil && (len(t.wbuf.entries) > 0 || len(t.wbuf.tombs) > 0)
}

// deltaShadowed reports whether the write buffer supersedes base records
// with this ID — by a buffered insert (newer version) or a tombstone. Base
// readers must skip shadowed records or they would double-report or
// resurrect. Callers hold t.mu (either mode).
func (t *Tree) deltaShadowed(id uint64) bool {
	if t.wbuf == nil {
		return false
	}
	if _, ok := t.wbuf.entries[id]; ok {
		return true
	}
	_, ok := t.wbuf.tombs[id]
	return ok
}

// deltaSize is the buffered mutation count that compaction thresholds
// compare against. Callers hold t.mu (either mode).
func (t *Tree) deltaSize() int {
	if t.wbuf == nil {
		return 0
	}
	return len(t.wbuf.entries) + len(t.wbuf.tombs)
}

// deltaEntriesSorted snapshots the buffered inserts in ascending ID order —
// the deterministic iteration order every delta-merging read uses. Callers
// hold t.mu (either mode).
func (t *Tree) deltaEntriesSorted() []deltaEntry {
	if t.wbuf == nil || len(t.wbuf.entries) == 0 {
		return nil
	}
	out := make([]deltaEntry, 0, len(t.wbuf.entries))
	for _, e := range t.wbuf.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].obj.ID() < out[j].obj.ID() })
	return out
}

// baseHasLocked reports whether the base tree indexes an object with this
// cell word and ID, by the same leaf scan Delete uses. Callers hold t.mu.
func (t *Tree) baseHasLocked(cell, id uint64) (bool, error) {
	c := t.bpt.Seek(t.curve.EncodeCell(cell))
	for ; c.Valid() && c.Cell() == cell; c.Next() {
		obj, err := t.raf.Read(c.Val())
		if err != nil {
			return false, err
		}
		if obj.ID() == id {
			return true, nil
		}
	}
	return false, c.Err()
}

// applyInsertLocked folds one durable insert into the write buffer and
// maintains t.count. Stale LSNs (a concurrent mutator on the same ID won the
// WAL race) are dropped, which makes in-memory state a pure function of the
// WAL order — crash replay reproduces it exactly. Callers hold t.mu in write
// mode.
func (t *Tree) applyInsertLocked(obj metric.Object, cell, lsn uint64) error {
	id := obj.ID()
	if old, ok := t.wbuf.entries[id]; ok {
		if old.lsn >= lsn {
			return nil
		}
		// Upsert of a buffered insert: still one live object.
		t.wbuf.entries[id] = deltaEntry{obj: obj, cell: cell, lsn: lsn}
		return nil
	}
	if tlsn, ok := t.wbuf.tombs[id]; ok {
		if tlsn >= lsn {
			return nil
		}
		// The ID was dead (tombstoned); this insert resurrects it.
		delete(t.wbuf.tombs, id)
		t.wbuf.entries[id] = deltaEntry{obj: obj, cell: cell, lsn: lsn}
		t.count++
		return nil
	}
	inBase, err := t.baseHasLocked(cell, id)
	if err != nil {
		return err
	}
	t.wbuf.entries[id] = deltaEntry{obj: obj, cell: cell, lsn: lsn}
	if !inBase {
		t.count++
	}
	return nil
}

// applyDeleteLocked folds one durable delete into the write buffer and
// maintains t.count. Deletes of already-dead or never-present IDs are
// no-ops beyond refreshing the tombstone, so replaying a redundant record is
// harmless. Callers hold t.mu in write mode.
func (t *Tree) applyDeleteLocked(id, cell, lsn uint64) error {
	if old, ok := t.wbuf.entries[id]; ok {
		if old.lsn >= lsn {
			return nil
		}
		delete(t.wbuf.entries, id)
		t.wbuf.tombs[id] = lsn
		t.count--
		return nil
	}
	if tlsn, ok := t.wbuf.tombs[id]; ok {
		if tlsn < lsn {
			t.wbuf.tombs[id] = lsn
		}
		return nil
	}
	inBase, err := t.baseHasLocked(cell, id)
	if err != nil {
		return err
	}
	t.wbuf.tombs[id] = lsn
	if inBase {
		t.count--
	}
	return nil
}

// WAL payload encoding. Records carry everything apply needs, so replay
// never computes a distance: insert = ID, cell word, object bytes; delete =
// ID, cell word (the cell lets apply re-check base membership for the live
// count). The cell word is the form the B+-tree stores, so neither writing
// nor replaying a record runs the curve.

// encodeInsertPayload builds a RecInsert payload.
func encodeInsertPayload(obj metric.Object, cell uint64) []byte {
	b := make([]byte, 16, 16+32)
	binary.LittleEndian.PutUint64(b[0:8], obj.ID())
	binary.LittleEndian.PutUint64(b[8:16], cell)
	return obj.AppendBinary(b)
}

// decodeInsertPayload parses a RecInsert payload back into an object.
func decodeInsertPayload(codec metric.Codec, p []byte) (obj metric.Object, cell uint64, err error) {
	if len(p) < 16 {
		return nil, 0, fmt.Errorf("core: wal insert payload is %d bytes, want ≥ 16", len(p))
	}
	id := binary.LittleEndian.Uint64(p[0:8])
	cell = binary.LittleEndian.Uint64(p[8:16])
	obj, err = codec.Decode(id, p[16:])
	if err != nil {
		return nil, 0, fmt.Errorf("core: wal insert payload: %w", err)
	}
	return obj, cell, nil
}

// encodeDeletePayload builds a RecDelete payload.
func encodeDeletePayload(id, cell uint64) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b[0:8], id)
	binary.LittleEndian.PutUint64(b[8:16], cell)
	return b
}

// decodeDeletePayload parses a RecDelete payload.
func decodeDeletePayload(p []byte) (id, cell uint64, err error) {
	if len(p) != 16 {
		return 0, 0, fmt.Errorf("core: wal delete payload is %d bytes, want 16", len(p))
	}
	return binary.LittleEndian.Uint64(p[0:8]), binary.LittleEndian.Uint64(p[8:16]), nil
}
