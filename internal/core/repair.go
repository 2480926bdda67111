package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"spbtree/internal/metric"
	"spbtree/internal/page"
	"spbtree/internal/raf"
	"spbtree/internal/sfc"
)

// RepairReport summarizes a Repair run.
type RepairReport struct {
	// Salvaged is the number of objects recovered into the rebuilt index.
	Salvaged int
	// Dropped is the number of index entries whose objects could not be
	// read back (corrupt or unreachable RAF records). When the index
	// itself was too damaged to enumerate entries, Dropped counts only
	// what was provably lost and the true loss may be larger.
	Dropped int
}

// Repair rebuilds the index directory from whatever objects survive in the
// RAF, replacing the old files. Two recovery paths compose:
//
//   - if the directory still opens, every live record reachable from the
//     B+-tree leaf level is salvaged, skipping records that fail their page
//     checksum or decode (a corrupt data page loses only its own objects);
//   - if the meta or B+-tree is corrupt, the RAF is scanned sequentially
//     from byte 0 (record headers are self-describing), which recovers
//     everything when the damage is confined to the index side.
//
// The rebuilt index reuses the surviving tree's pivot count and curve when
// available, and defaults otherwise. Repair is not crash-atomic — it is a
// recovery tool for an already-damaged directory — but it never leaves a
// state that opens cleanly yet serves wrong results: the final meta is
// written with SaveAtomic semantics.
func Repair(dir string, opts LoadOptions) (RepairReport, error) {
	var rep RepairReport
	if opts.Distance == nil || opts.Codec == nil {
		return rep, fmt.Errorf("core: LoadOptions.Distance and Codec are required")
	}

	objs, numPivots, curve, err := salvage(dir, opts, &rep)
	if err != nil {
		return rep, err
	}
	if len(objs) == 0 {
		return rep, fmt.Errorf("core: repair: no objects could be salvaged from %s", dir)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].ID() < objs[j].ID() })
	rep.Salvaged = len(objs)

	// Rebuild into staging files, then swap them in and write the meta
	// atomically. If a crash interleaves, the old meta's page checksums no
	// longer match the swapped files, so the damage stays detectable.
	idxTmp := filepath.Join(dir, IndexPagesFile+".tmp")
	dataTmp := filepath.Join(dir, DataPagesFile+".tmp")
	idx, err := page.NewFileStore(idxTmp)
	if err != nil {
		return rep, err
	}
	data, err := page.NewFileStore(dataTmp)
	if err != nil {
		idx.Close()
		return rep, err
	}
	tree, err := Build(objs, Options{
		Distance: opts.Distance, Codec: opts.Codec,
		NumPivots: numPivots, Curve: curve,
		IndexStore: idx, DataStore: data,
		CacheSize: opts.CacheSize,
	})
	if err != nil {
		idx.Close()
		data.Close()
		return rep, fmt.Errorf("core: repair: rebuild: %w", err)
	}
	if err := tree.Sync(); err != nil {
		tree.Close()
		return rep, err
	}
	if err := os.Rename(idxTmp, filepath.Join(dir, IndexPagesFile)); err != nil {
		tree.Close()
		return rep, err
	}
	if err := os.Rename(dataTmp, filepath.Join(dir, DataPagesFile)); err != nil {
		tree.Close()
		return rep, err
	}
	if err := tree.SaveAtomic(dir); err != nil {
		tree.Close()
		return rep, err
	}
	return rep, tree.Close()
}

// salvage collects every recoverable object from dir, preferring the
// index-guided path and falling back to a sequential RAF scan.
func salvage(dir string, opts LoadOptions, rep *RepairReport) (objs []metric.Object, numPivots int, curve sfc.Kind, err error) {
	byID := make(map[uint64]metric.Object)
	sequentialNeeded := true

	if t, lerr := Load(dir, opts); lerr == nil {
		numPivots = len(t.pivots)
		curve = t.kind
		sequentialNeeded = false
		c := t.bpt.SeekFirst()
		for ; c.Valid(); c.Next() {
			obj, rerr := t.raf.Read(c.Val())
			if rerr != nil {
				rep.Dropped++
				continue
			}
			byID[obj.ID()] = obj
		}
		if c.Err() != nil {
			// Leaf chain broken mid-walk: also try the sequential scan to
			// recover records the index can no longer reach.
			sequentialNeeded = true
		}
		t.Close()
	}

	if sequentialNeeded {
		st, serr := os.Stat(filepath.Join(dir, DataPagesFile))
		if serr != nil {
			if len(byID) == 0 {
				return nil, 0, 0, fmt.Errorf("core: repair: %w", serr)
			}
		} else {
			store, oerr := page.OpenFileStore(filepath.Join(dir, DataPagesFile))
			if oerr != nil {
				return nil, 0, 0, fmt.Errorf("core: repair: %w", oerr)
			}
			_, _ = raf.Salvage(store, opts.Codec, uint64(st.Size()), func(obj metric.Object) {
				byID[obj.ID()] = obj
			})
			store.Close()
		}
	}

	objs = make([]metric.Object, 0, len(byID))
	for _, o := range byID {
		objs = append(objs, o)
	}
	return objs, numPivots, curve, nil
}
