package core

import "spbtree/internal/page"

// Rebuild compacts the tree into fresh page stores: live objects are read in
// index order, re-appended to a new RAF in exact SFC order, and the B+-tree
// is re-bulk-loaded. It restores the two things churn degrades —
// out-of-SFC-order RAF placement from inserts and orphaned RAF records from
// deletes — the bulk-load-plus-deltas maintenance cycle the paper's design
// implies. The pivot table and quantization are kept (no distance
// computations); cost-model distributions are kept as-is.
//
// New stores may be supplied (e.g. fresh files to swap in); nil arguments
// select in-memory stores. The old stores are left untouched.
//
// Rebuild takes the tree's write lock: it waits for in-flight queries to
// drain, swaps the substrates, and queries issued afterwards see the compact
// tree — safe under concurrent read traffic (run the stress tests with
// -race).
func (t *Tree) Rebuild(indexStore, dataStore page.Store) error {
	if t.dur != nil {
		// Durable trees compact into their own generation layout; the store
		// arguments do not apply there.
		return t.dur.compactOnce(t)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	if indexStore == nil {
		indexStore = page.NewMemStore()
	}
	if dataStore == nil {
		dataStore = page.NewMemStore()
	}
	// Collect live entries in key order from the leaf chain.
	var live []keyed
	c := t.bpt.SeekFirst()
	for ; c.Valid(); c.Next() {
		obj, err := t.raf.Read(c.Val())
		if err != nil {
			return err
		}
		live = append(live, keyed{key: c.Key(), cell: c.Cell(), obj: obj})
	}
	if err := c.Err(); err != nil {
		return err
	}
	sub, err := bulkLoad(indexStore, dataStore, t.idxCache.Capacity(), t.dataCache.Capacity(), t.curve, t.codec, live)
	if err != nil {
		return err
	}
	t.adopt(sub, len(live))
	t.cm.markDirty()
	// The approximate graph indexed the old RAF's offsets; drop it.
	t.graph = nil
	// The substrates were swapped out from under any installed tracer.
	t.wireTracer()
	return nil
}

// FragmentationBytes estimates how many RAF bytes are dead (orphaned by
// deletes), from the gap between RAF records and live index entries at the
// file's average record size — when this grows large relative to
// Tree.StorageBytes, a Rebuild pays off. It reads no pages.
func (t *Tree) FragmentationBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.raf.Count() == 0 {
		return 0
	}
	dead := t.raf.Count() - t.bpt.Len()
	if dead <= 0 {
		return 0
	}
	avg := float64(t.raf.Size()) / float64(t.raf.Count())
	return int64(avg * float64(dead))
}
