package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"spbtree/internal/graph"
	"spbtree/internal/metric"
	"spbtree/internal/page"
)

// Canonical file names of an index directory, shared by SaveAtomic, Load,
// Repair and spbtool.
const (
	// IndexPagesFile holds the B+-tree page store.
	IndexPagesFile = "index.pages"
	// DataPagesFile holds the RAF page store.
	DataPagesFile = "data.pages"
	// MetaFile holds the WriteMeta blob (checksummed footer included).
	MetaFile = "tree.meta"
	// metaTmpFile is the staging name WriteFileAtomic gives the meta; the
	// crash harness plants torn copies there.
	metaTmpFile = MetaFile + tmpSuffix
	// GraphFile holds the approximate graph tier (versioned, checksummed;
	// see internal/graph). Absent when no graph was built at save time.
	GraphFile = "graph.bin"
	// tmpSuffix is appended to a file's name to stage its next content.
	tmpSuffix = ".tmp"
)

// WriteFileAtomic publishes data as the content of path so that a crash at
// any point leaves either the previous content or the new one, never a torn
// or empty file: it writes path+".tmp", fsyncs it, renames it over path, and
// fsyncs the directory so the rename itself survives. Every small file whose
// loss or truncation would stop a restart — tree.meta, graph.bin, CURRENT,
// applied.lsn, a cluster's placement.json — is written this way. On success
// no staging file remains; on failure path is untouched and the staging file
// is removed if it can be.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) // best effort; the next publish truncates it anyway
		return err
	}
	return syncDir(filepath.Dir(path))
}

// SaveAtomic persists the tree's meta to dir/tree.meta crash-safely. The
// sequence is: flush the RAF tail, fsync both page stores, then publish the
// meta blob (with its checksummed footer) with WriteFileAtomic — temp file,
// fsync, rename over tree.meta, directory fsync. A crash at any point leaves
// either the previous meta or the new one — and because the meta embeds the
// checksum of every page it references, a meta that does not match the page
// files is detected as corruption rather than silently serving wrong
// results.
//
// The tree's page stores must live in dir (built there, or reopened via
// Load) for the resulting directory to be self-contained.
func (t *Tree) SaveAtomic(dir string) error {
	if err := t.Sync(); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	var buf bytes.Buffer
	if err := t.WriteMeta(&buf); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	if err := WriteFileAtomic(filepath.Join(dir, MetaFile), buf.Bytes()); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	return t.saveGraph(dir)
}

// saveGraph persists the live approximate graph alongside the meta (with
// WriteFileAtomic), or removes a stale graph.bin when the tree has none — a
// reload must never pair an old graph with a newer base.
func (t *Tree) saveGraph(dir string) error {
	t.mu.RLock()
	var blob []byte
	if g := t.graphLive(); g != nil {
		blob = g.Encode()
	}
	t.mu.RUnlock()
	if blob == nil {
		err := os.Remove(filepath.Join(dir, GraphFile))
		if os.IsNotExist(err) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("core: save: %w", err)
		}
		return syncDir(dir)
	}
	if err := WriteFileAtomic(filepath.Join(dir, GraphFile), blob); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so a completed rename survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("core: save: sync dir: %w", err)
	}
	return nil
}

// LoadOptions configures Load and Repair: the build-time metric and codec,
// plus the cache and traversal knobs of OpenOptions (the stores themselves
// come from the directory).
type LoadOptions struct {
	// Distance and Codec must match the tree's build-time configuration;
	// required.
	Distance metric.DistanceFunc
	Codec    metric.Codec
	// CacheSize is the buffer-cache capacity (default 32; negative
	// disables).
	CacheSize int
	// Traversal selects the kNN strategy.
	Traversal TraversalStrategy
}

// Load reopens an index directory written by SaveAtomic (or spbtool build):
// it opens the two page stores, validates the meta footer, and arms page
// checksum validation. The returned tree owns the stores; Close it when
// done.
func Load(dir string, opts LoadOptions) (*Tree, error) {
	idx, err := page.OpenFileStore(filepath.Join(dir, IndexPagesFile))
	if err != nil {
		return nil, err
	}
	data, err := page.OpenFileStore(filepath.Join(dir, DataPagesFile))
	if err != nil {
		idx.Close()
		return nil, err
	}
	mf, err := os.Open(filepath.Join(dir, MetaFile))
	if err != nil {
		idx.Close()
		data.Close()
		return nil, err
	}
	defer mf.Close()
	t, err := Open(mf, OpenOptions{
		Distance: opts.Distance, Codec: opts.Codec,
		IndexStore: idx, DataStore: data,
		CacheSize: opts.CacheSize, Traversal: opts.Traversal,
	})
	if err != nil {
		idx.Close()
		data.Close()
		return nil, err
	}
	if err := t.loadGraph(dir); err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

// loadGraph reattaches a saved approximate graph, if any. A missing file
// means no graph (not an error); a file that fails its checksum or structural
// validation fails the load with graph.ErrCorrupt; a structurally valid graph
// that does not match the reopened base (count, size, or offsets) is ignored
// — it belongs to some other state of the tree and queries must not use it.
func (t *Tree) loadGraph(dir string) error {
	raw, err := os.ReadFile(filepath.Join(dir, GraphFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("core: load: %w", err)
	}
	g, err := graph.Decode(raw)
	if err != nil {
		return fmt.Errorf("core: load: %w", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if g.BaseCount != uint64(t.raf.Count()) || g.BaseSize != t.raf.Size() {
		return nil
	}
	for _, off := range g.Offs {
		if off >= g.BaseSize {
			return nil
		}
	}
	t.graph = newGraphTier(g, t.raf)
	return nil
}
