// Package page provides fixed-size page storage with I/O accounting for all
// disk-based access methods in this library. Every index (SPB-tree B+-tree,
// RAF, M-tree, R-tree, M-Index) reads and writes 4 KB pages through a Store,
// and the paper's "PA" metric — the number of page accesses — is the count of
// physical reads and writes observed below the buffer cache.
package page

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"spbtree/internal/retry"
)

// Size is the fixed page size in bytes. The paper's experiments use a 4 KB
// disk page for every MAM.
const Size = 4096

// ID identifies a page within a Store.
type ID uint32

// Stats counts physical page reads and writes.
type Stats struct {
	reads  atomic.Int64
	writes atomic.Int64
}

// Reads returns the physical page reads since the last Reset.
func (s *Stats) Reads() int64 { return s.reads.Load() }

// Writes returns the physical page writes since the last Reset.
func (s *Stats) Writes() int64 { return s.writes.Load() }

// Accesses returns reads + writes, the paper's PA metric.
func (s *Stats) Accesses() int64 { return s.reads.Load() + s.writes.Load() }

// Reset zeroes both counters.
func (s *Stats) Reset() {
	s.reads.Store(0)
	s.writes.Store(0)
}

// Store is a flat, random-access array of fixed-size pages.
type Store interface {
	// Read copies page id into buf, which must be Size bytes long.
	Read(id ID, buf []byte) error
	// Write stores buf, which must be Size bytes long, as page id.
	Write(id ID, buf []byte) error
	// Alloc reserves a fresh zeroed page and returns its id.
	Alloc() (ID, error)
	// NumPages returns the number of allocated pages.
	NumPages() int
	// Stats returns the physical I/O counters of the store.
	Stats() *Stats
	// Sync forces all previously written pages to stable storage. A Write
	// alone is not durable until the next successful Sync.
	Sync() error
	// Close releases underlying resources. Implementations that buffer in
	// the OS sync before closing, so a clean shutdown is durable.
	Close() error
}

var errBufSize = fmt.Errorf("page: buffer must be exactly %d bytes", Size)

// ErrOutOfRange is returned when a page id exceeds the allocated range.
var ErrOutOfRange = errors.New("page: id out of range")

// MemStore is an in-memory Store, used by tests and small experiments. It is
// safe for concurrent use.
type MemStore struct {
	mu    sync.RWMutex
	pages [][]byte
	stats Stats
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Read implements Store.
func (m *MemStore) Read(id ID, buf []byte) error {
	if len(buf) != Size {
		return errBufSize
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if int(id) >= len(m.pages) {
		return fmt.Errorf("%w: read %d of %d", ErrOutOfRange, id, len(m.pages))
	}
	m.stats.reads.Add(1)
	if p := m.pages[id]; p != nil {
		copy(buf, p)
	} else {
		clear(buf)
	}
	return nil
}

// Write implements Store.
func (m *MemStore) Write(id ID, buf []byte) error {
	if len(buf) != Size {
		return errBufSize
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(id) >= len(m.pages) {
		return fmt.Errorf("%w: write %d of %d", ErrOutOfRange, id, len(m.pages))
	}
	m.stats.writes.Add(1)
	p := m.pages[id]
	if p == nil {
		p = make([]byte, Size)
		m.pages[id] = p
	}
	copy(p, buf)
	return nil
}

// Alloc implements Store.
func (m *MemStore) Alloc() (ID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pages = append(m.pages, nil)
	return ID(len(m.pages) - 1), nil
}

// NumPages implements Store.
func (m *MemStore) NumPages() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.pages)
}

// Stats implements Store.
func (m *MemStore) Stats() *Stats { return &m.stats }

// Sync implements Store; memory needs no syncing.
func (m *MemStore) Sync() error { return nil }

// Close implements Store.
func (m *MemStore) Close() error { return nil }

// FileStore is a Store backed by a single flat file: page i occupies bytes
// [i*Size, (i+1)*Size). Reads share the lock, so the misses of concurrent
// queries overlap on the device; Write, Alloc, Sync and Close are exclusive.
type FileStore struct {
	mu    sync.RWMutex
	f     *os.File
	n     int
	stats Stats
}

// NewFileStore creates or truncates the file at path.
func NewFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("page: open store: %w", err)
	}
	return &FileStore{f: f}, nil
}

// OpenFileStore opens an existing store file, deriving the page count from
// its size (partial trailing pages are rounded up: they hold real data).
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("page: open store: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("page: stat store: %w", err)
	}
	return &FileStore{f: f, n: int((st.Size() + Size - 1) / Size)}, nil
}

// NewTempFileStore creates a store in a fresh temporary file that is removed
// on Close.
func NewTempFileStore() (*FileStore, error) {
	f, err := os.CreateTemp("", "spbtree-pages-*.db")
	if err != nil {
		return nil, fmt.Errorf("page: temp store: %w", err)
	}
	// Unlink immediately; the fd keeps the data alive until Close.
	if err := os.Remove(f.Name()); err != nil {
		f.Close()
		return nil, fmt.Errorf("page: unlink temp store: %w", err)
	}
	return &FileStore{f: f}, nil
}

// Read implements Store.
func (s *FileStore) Read(id ID, buf []byte) error {
	if len(buf) != Size {
		return errBufSize
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if int(id) >= s.n {
		return fmt.Errorf("%w: read %d of %d", ErrOutOfRange, id, s.n)
	}
	s.stats.reads.Add(1)
	_, err := s.f.ReadAt(buf, int64(id)*Size)
	if errors.Is(err, io.EOF) {
		// Allocated but never written: logical zero page.
		clear(buf)
		return nil
	}
	if err != nil {
		return fmt.Errorf("page: read %d: %w", id, err)
	}
	return nil
}

// Write implements Store.
func (s *FileStore) Write(id ID, buf []byte) error {
	if len(buf) != Size {
		return errBufSize
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(id) >= s.n {
		return fmt.Errorf("%w: write %d of %d", ErrOutOfRange, id, s.n)
	}
	s.stats.writes.Add(1)
	if err := retry.WriteAt(s.f, buf, int64(id)*Size); err != nil {
		return fmt.Errorf("page: write %d: %w", id, err)
	}
	return nil
}

// Alloc implements Store.
func (s *FileStore) Alloc() (ID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := ID(s.n)
	s.n++
	return id, nil
}

// NumPages implements Store.
func (s *FileStore) NumPages() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n
}

// Stats implements Store.
func (s *FileStore) Stats() *Stats { return &s.stats }

// Sync implements Store, fsyncing the backing file. Interrupted fsyncs are
// retried (internal/retry) rather than surfaced as spurious failures.
func (s *FileStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := retry.Sync(s.f.Sync); err != nil {
		return fmt.Errorf("page: sync store: %w", err)
	}
	return nil
}

// Close implements Store, syncing first so a clean shutdown is durable.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	syncErr := s.f.Sync()
	if err := s.f.Close(); err != nil {
		return err
	}
	if syncErr != nil {
		return fmt.Errorf("page: sync on close: %w", syncErr)
	}
	return nil
}

var (
	_ Store = (*MemStore)(nil)
	_ Store = (*FileStore)(nil)
)
