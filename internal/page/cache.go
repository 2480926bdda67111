package page

import (
	"container/list"
	"sync"
	"sync/atomic"

	"spbtree/internal/obs"
)

// Cache is a write-through LRU buffer cache layered over a Store. Reads that
// hit the cache do not touch the underlying store and therefore do not count
// toward its Stats — exactly the experimental setup of the paper's Fig. 10,
// where the cache is flushed before each query and PA measures the misses.
//
// The cache is sharded: page IDs map onto a power-of-two number of
// independently locked LRU lists (id & mask), so concurrent queries do not
// serialize on a single mutex. Sequential page IDs land on distinct shards round-robin, which
// spreads the SFC-local access patterns of the B+-tree and RAF evenly.
// Capacity is divided across shards; small caches collapse to one shard so
// per-shard LRU behavior stays close to the paper's global LRU.
//
// Concurrent misses on the same page are coalesced: one goroutine performs
// the physical read while the rest wait for its result, so a burst of
// workers faulting the same page costs one page access (the waiters count as
// hits — they were served without touching the store).
//
// A capacity of zero disables caching: every access goes to the store, with
// no miss coalescing, so the store's counters see every read.
type Cache struct {
	store    Store
	capacity int
	shards   []cacheShard
	mask     uint64

	// tracer, when non-nil, receives a structured event per cache hit, miss
	// (with its physical read) and write-through; src labels the events.
	tracer obs.Tracer
	src    obs.Src
}

// cacheShard is one independently locked LRU over a slice of the ID space.
type cacheShard struct {
	mu       sync.Mutex
	capacity int
	lru      *list.List // front = most recently used; values are *cacheEntry
	index    map[ID]*list.Element
	flights  map[ID]*flight
	hits     atomic.Int64
	misses   atomic.Int64
}

// cacheEntry is one cached page. Entries are immutable once published: Write
// and eviction replace or drop an entry, never modify its bytes, so a view
// handed out by View stays a valid snapshot for as long as the caller holds
// it — the garbage collector is the pin.
type cacheEntry struct {
	id   ID
	data [Size]byte
}

// flight is an in-progress physical read being shared by concurrent misses;
// on success its entry becomes the cache entry.
type flight struct {
	done  chan struct{}
	entry *cacheEntry
	err   error
}

// maxCacheShards bounds the shard count; minShardPages keeps each shard's
// LRU deep enough that sharding a small cache does not degrade its
// replacement behavior versus the paper's single global LRU.
const (
	maxCacheShards = 16
	minShardPages  = 8
)

// cacheShardCount picks the largest power-of-two shard count (≤
// maxCacheShards) that still leaves every shard at least minShardPages of
// capacity.
func cacheShardCount(capacity int) int {
	n := 1
	for n < maxCacheShards && capacity/(n*2) >= minShardPages {
		n *= 2
	}
	return n
}

// NewCache wraps store with an LRU cache holding up to capacity pages.
func NewCache(store Store, capacity int) *Cache {
	if capacity < 0 {
		capacity = 0
	}
	n := cacheShardCount(capacity)
	c := &Cache{
		store:    store,
		capacity: capacity,
		shards:   make([]cacheShard, n),
		mask:     uint64(n - 1),
	}
	base, extra := capacity/n, capacity%n
	for i := range c.shards {
		s := &c.shards[i]
		s.capacity = base
		if i < extra {
			s.capacity++
		}
		s.lru = list.New()
		s.index = make(map[ID]*list.Element, s.capacity)
		s.flights = make(map[ID]*flight)
	}
	return c
}

// AsCache returns store itself when it already is a Cache and a pass-through
// (capacity 0) Cache over it otherwise, so the RAF and the B+-tree have one
// page-view read path whatever store a test hands them.
func AsCache(store Store) *Cache {
	if c, ok := store.(*Cache); ok {
		return c
	}
	return NewCache(store, 0)
}

func (c *Cache) shard(id ID) *cacheShard { return &c.shards[uint64(id)&c.mask] }

// Read implements Store: View plus a copy into buf.
func (c *Cache) Read(id ID, buf []byte) error {
	if len(buf) != Size {
		return errBufSize
	}
	v, err := c.View(id)
	if err != nil {
		return err
	}
	copy(buf, v[:])
	return nil
}

// View returns a borrowed, read-only snapshot of page id: the cached entry's
// own bytes on a hit, and on a miss the one buffer that is both read into and
// cached. The caller must never write through it; it stays valid (and keeps
// showing the bytes of the moment it was taken) across any later Write,
// Invalidate, Flush or eviction of the page. Hit/miss counters and tracer
// events are exactly those of Read.
func (c *Cache) View(id ID) (*[Size]byte, error) {
	s := c.shard(id)
	s.mu.Lock()
	if el, ok := s.index[id]; ok {
		s.hits.Add(1)
		s.lru.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		s.mu.Unlock()
		c.traceRead(id, true)
		return &e.data, nil
	}
	if c.capacity == 0 {
		// Caching disabled: pure pass-through, every read is physical.
		s.misses.Add(1)
		s.mu.Unlock()
		pg := new([Size]byte)
		if err := c.store.Read(id, pg[:]); err != nil {
			return nil, err
		}
		c.traceRead(id, false)
		return pg, nil
	}
	if fl, ok := s.flights[id]; ok {
		// Another goroutine is already reading this page; share its result.
		s.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return nil, fl.err
		}
		s.hits.Add(1)
		c.traceRead(id, true)
		return &fl.entry.data, nil
	}
	fl := &flight{done: make(chan struct{}), entry: &cacheEntry{id: id}}
	s.flights[id] = fl
	s.misses.Add(1)
	s.mu.Unlock()

	fl.err = c.store.Read(id, fl.entry.data[:])
	s.mu.Lock()
	delete(s.flights, id)
	if fl.err == nil {
		s.insertLocked(fl.entry)
	}
	s.mu.Unlock()
	close(fl.done)
	if fl.err != nil {
		return nil, fl.err
	}
	c.traceRead(id, false)
	return &fl.entry.data, nil
}

// traceRead emits the events of one served read: a hit, or a miss with its
// physical read.
func (c *Cache) traceRead(id ID, hit bool) {
	if c.tracer == nil {
		return
	}
	if hit {
		c.tracer.Event(obs.Event{Kind: obs.EvCacheHit, Src: c.src, Page: uint32(id)})
		return
	}
	c.tracer.Event(obs.Event{Kind: obs.EvCacheMiss, Src: c.src, Page: uint32(id)})
	c.tracer.Event(obs.Event{Kind: obs.EvPageRead, Src: c.src, Page: uint32(id)})
}

// Write implements Store: write-through, replacing any cached entry with a
// fresh one (views of the old entry keep its bytes). A failed underlying
// write evicts the page — the on-disk state is unknown, so a cached copy
// would mask the failure from later reads.
func (c *Cache) Write(id ID, buf []byte) error {
	if len(buf) != Size {
		return errBufSize
	}
	s := c.shard(id)
	s.mu.Lock()
	s.invalidateLocked(id)
	if err := c.store.Write(id, buf); err != nil {
		s.mu.Unlock()
		return err
	}
	if s.capacity > 0 {
		e := &cacheEntry{id: id}
		copy(e.data[:], buf)
		s.insertLocked(e)
	}
	s.mu.Unlock()
	if c.tracer != nil {
		c.tracer.Event(obs.Event{Kind: obs.EvPageWrite, Src: c.src, Page: uint32(id)})
	}
	return nil
}

// insertLocked publishes e as the most recently used entry, evicting from
// the cold end. The shard's capacity is positive (pass-through caches never
// insert).
func (s *cacheShard) insertLocked(e *cacheEntry) {
	s.index[e.id] = s.lru.PushFront(e)
	for s.lru.Len() > s.capacity {
		back := s.lru.Back()
		delete(s.index, back.Value.(*cacheEntry).id)
		s.lru.Remove(back)
	}
}

// Invalidate evicts page id from the cache (a no-op if absent), forcing the
// next read to hit the underlying store. Verification and repair use it so
// cached copies cannot mask on-disk corruption.
func (c *Cache) Invalidate(id ID) {
	s := c.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.invalidateLocked(id)
}

func (s *cacheShard) invalidateLocked(id ID) {
	if el, ok := s.index[id]; ok {
		delete(s.index, id)
		s.lru.Remove(el)
	}
}

// Alloc implements Store.
func (c *Cache) Alloc() (ID, error) { return c.store.Alloc() }

// NumPages implements Store.
func (c *Cache) NumPages() int { return c.store.NumPages() }

// Stats implements Store, returning the underlying store's physical I/O
// counters (cache hits are invisible to them).
func (c *Cache) Stats() *Stats { return c.store.Stats() }

// Sync implements Store. The cache is write-through, so syncing the
// underlying store makes every completed Write durable.
func (c *Cache) Sync() error { return c.store.Sync() }

// Close implements Store.
func (c *Cache) Close() error { return c.store.Close() }

// Flush empties the cache. The paper flushes the buffer before each of its
// 500 measured queries so that PA reflects a cold start.
func (c *Cache) Flush() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.lru.Init()
		clear(s.index)
		s.mu.Unlock()
	}
}

// HitRate returns the fraction of reads served from the cache, and the
// absolute hit/miss counts, since construction.
func (c *Cache) HitRate() (rate float64, hits, misses int64) {
	hits, misses = c.Counts()
	if hits+misses == 0 {
		return 0, 0, 0
	}
	return float64(hits) / float64(hits+misses), hits, misses
}

// Counts returns the raw hit/miss counters since construction, summed across
// the shards; the snapshot is a handful of atomic loads, cheap enough for
// per-query before/after deltas (core.QueryStats uses it to attribute cache
// hits above the store's PA accounting). Reads that joined another
// goroutine's in-flight physical read count as hits: they were served
// without touching the store.
func (c *Cache) Counts() (hits, misses int64) {
	for i := range c.shards {
		hits += c.shards[i].hits.Load()
		misses += c.shards[i].misses.Load()
	}
	return hits, misses
}

// SetTracer installs (or, with nil, removes) a tracer receiving a structured
// event per cache hit, per miss with its physical read, and per
// write-through, labeled with src. Not synchronized with in-flight reads:
// install tracers before issuing queries.
func (c *Cache) SetTracer(tr obs.Tracer, src obs.Src) {
	c.tracer = tr
	c.src = src
}

// Capacity returns the cache capacity in pages (summed over the shards).
func (c *Cache) Capacity() int { return c.capacity }

var _ Store = (*Cache)(nil)
