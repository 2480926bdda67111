package page

import (
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
// Pages live in frames. Pin hands out a frame whose bytes stay valid until
// the matching Unpin, whatever happens to the page meanwhile; a miss reads
// into the buffer of the unpinned LRU victim it evicts, so a cache at
// capacity serves misses without allocating (DESIGN.md §9.7).
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
	loaded   *sync.Cond // on mu: some frame of the shard finished loading
	capacity int
	index    map[ID]*Frame // cached frames, loading ones included
	mru, lru *Frame        // list of the n loaded cached frames, both ends
	n        int
	limbo    *Frame // poisonFrames builds only: see takeFrameLocked
	hits     atomic.Int64
	misses   atomic.Int64
}

// Frame is one page-sized buffer of a Cache, handed out pinned by Pin. Its
// bytes are read-only and valid until Unpin; everything else about it is the
// cache's, guarded by the shard lock. A frame is cached while it is the
// shard's index entry for its page: Write, Invalidate, Flush and eviction
// drop it from the index and never touch its bytes, so whoever has it pinned
// keeps reading the page as pinned.
type Frame struct {
	data [Size]byte
	id   ID
	pins int

	// loading: the miss that created the frame is still reading into it;
	// err is that read's failure, for the pins that waited on it.
	loading    bool
	err        error
	prev, next *Frame // toward mru, toward lru
}

// Data returns the frame's page image, read-only and valid until the frame
// is unpinned.
func (f *Frame) Data() *[Size]byte { return &f.data }

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
		s.loaded = sync.NewCond(&s.mu)
		s.index = make(map[ID]*Frame, s.capacity)
	}
	return c
}

// AsCache returns store itself when it already is a Cache and a pass-through
// (capacity 0) Cache over it otherwise, so the RAF and the B+-tree have one
// pinned-frame read path whatever store a test hands them.
func AsCache(store Store) *Cache {
	if c, ok := store.(*Cache); ok {
		return c
	}
	return NewCache(store, 0)
}

func (c *Cache) shard(id ID) *cacheShard { return &c.shards[uint64(id)&c.mask] }

// Read implements Store: Pin, a copy into buf, Unpin.
func (c *Cache) Read(id ID, buf []byte) error {
	if len(buf) != Size {
		return errBufSize
	}
	f, err := c.Pin(id)
	if err != nil {
		return err
	}
	copy(buf, f.data[:])
	c.Unpin(f)
	return nil
}

// Pin returns the frame holding page id, pinned: the cached frame on a hit,
// and on a miss the frame the page was read into and is now cached in. The
// caller reads the page through Frame.Data, never writes through it, and
// calls Unpin exactly once when done; until then the bytes are those of the
// moment of the Pin, across any later Write, Invalidate, Flush or eviction of
// the page. Hit/miss counters and tracer events are exactly those of Read.
func (c *Cache) Pin(id ID) (*Frame, error) {
	s := c.shard(id)
	s.mu.Lock()
	if f, ok := s.index[id]; ok {
		f.pins++
		if !f.loading {
			s.touchLocked(f)
		}
		// Another goroutine is already reading this page: share its result.
		for f.loading {
			s.loaded.Wait()
		}
		if err := f.err; err != nil {
			f.pins--
			s.mu.Unlock()
			return nil, err
		}
		s.hits.Add(1)
		s.mu.Unlock()
		c.traceRead(id, true)
		return f, nil
	}
	s.misses.Add(1)
	if c.capacity == 0 {
		// Caching disabled: pure pass-through, every read is physical.
		s.mu.Unlock()
		f := &Frame{id: id, pins: 1}
		if err := c.store.Read(id, f.data[:]); err != nil {
			return nil, err
		}
		c.traceRead(id, false)
		return f, nil
	}
	f := s.takeFrameLocked()
	f.id, f.pins, f.loading = id, 1, true
	s.index[id] = f
	s.mu.Unlock()

	err := c.store.Read(id, f.data[:])
	s.mu.Lock()
	f.loading, f.err = false, err
	if s.index[id] == f { // not dropped by a Write, Invalidate or Flush meanwhile
		if err == nil {
			s.insertLocked(f)
		} else {
			delete(s.index, id) // and the frame goes with its error, never reused
		}
	}
	s.loaded.Broadcast()
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	c.traceRead(id, false)
	return f, nil
}

// Unpin releases a frame obtained from Pin; its bytes must not be read
// afterwards.
func (c *Cache) Unpin(f *Frame) {
	s := c.shard(f.id)
	s.mu.Lock()
	f.pins--
	pins := f.pins
	s.mu.Unlock()
	if pins < 0 {
		panic("page: Unpin of a frame that is not pinned")
	}
}

// poisonByte fills a retired frame in poisonFrames builds: a record header or
// node count read out of it is far out of range, so the decoders reject it.
const poisonByte = 0xDB

// takeFrameLocked returns the frame a miss or a write will fill. Below
// capacity that is a new one. At capacity the LRU victim is evicted first and
// its frame reused — there is no pool of spare frames, so the cache never
// holds more than capacity buffers — unless somebody still has the victim
// pinned: then it is left to the garbage collector and a new frame takes its
// place, so reuse is an optimization the pin rule never depends on.
//
// In poisonFrames builds (the race detector's) a victim is first overwritten
// with poisonByte and sits out one eviction in limbo, so a reader that keeps
// using a frame after Unpin decodes garbage and fails, instead of silently
// reading the page that replaced it.
func (s *cacheShard) takeFrameLocked() *Frame {
	if s.n < s.capacity {
		return new(Frame)
	}
	v := s.lru
	s.dropLocked(v)
	if v.pins > 0 {
		return new(Frame)
	}
	if poisonFrames {
		for i := range v.data {
			v.data[i] = poisonByte
		}
		if v, s.limbo = s.limbo, v; v == nil {
			return new(Frame)
		}
	}
	return v
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

// Write implements Store: write-through, replacing any cached frame of the
// page (pins of the old frame keep its bytes). A failed underlying write
// evicts the page — the on-disk state is unknown, so a cached copy would mask
// the failure from later reads.
func (c *Cache) Write(id ID, buf []byte) error {
	if len(buf) != Size {
		return errBufSize
	}
	s := c.shard(id)
	s.mu.Lock()
	old := s.index[id]
	if old != nil {
		s.dropLocked(old)
	}
	if err := c.store.Write(id, buf); err != nil {
		s.mu.Unlock()
		return err
	}
	if s.capacity > 0 {
		f := old
		if f == nil || f.pins > 0 || f.loading {
			f = s.takeFrameLocked()
		}
		copy(f.data[:], buf)
		f.id = id
		s.index[id] = f
		s.insertLocked(f)
	}
	s.mu.Unlock()
	if c.tracer != nil {
		c.tracer.Event(obs.Event{Kind: obs.EvPageWrite, Src: c.src, Page: uint32(id)})
	}
	return nil
}

// insertLocked links f, cached and loaded, in as the most recently used
// frame, evicting from the cold end whatever then exceeds the capacity.
func (s *cacheShard) insertLocked(f *Frame) {
	f.prev, f.next = nil, s.mru
	if s.mru != nil {
		s.mru.prev = f
	} else {
		s.lru = f
	}
	s.mru = f
	s.n++
	for s.n > s.capacity {
		s.dropLocked(s.lru)
	}
}

// touchLocked makes the loaded cached frame f the most recently used.
func (s *cacheShard) touchLocked(f *Frame) {
	if s.mru != f {
		s.unlinkLocked(f)
		s.insertLocked(f)
	}
}

// dropLocked removes the cached frame f from the index and, once loaded,
// from the LRU list; a frame still loading is just not cached when its read
// completes.
func (s *cacheShard) dropLocked(f *Frame) {
	delete(s.index, f.id)
	if !f.loading {
		s.unlinkLocked(f)
	}
}

func (s *cacheShard) unlinkLocked(f *Frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		s.mru = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		s.lru = f.prev
	}
	f.prev, f.next = nil, nil
	s.n--
}

// Invalidate evicts page id from the cache (a no-op if absent), forcing the
// next read to hit the underlying store. Verification and repair use it so
// cached copies cannot mask on-disk corruption.
func (c *Cache) Invalidate(id ID) {
	s := c.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if f := s.index[id]; f != nil {
		s.dropLocked(f)
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
		clear(s.index)
		s.mru, s.lru, s.n = nil, nil, 0
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
