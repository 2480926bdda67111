package page

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// slowStore stalls physical reads until release is closed (announcing each
// attempt on started), so concurrent misses on one page demonstrably overlap
// the flight leader's read and exercise the in-flight coalescing.
type slowStore struct {
	*MemStore
	started chan struct{} // buffered; one send per physical read attempt
	release chan struct{} // closed to let the stalled reads proceed
}

func (s *slowStore) Read(id ID, buf []byte) error {
	s.started <- struct{}{}
	<-s.release
	return s.MemStore.Read(id, buf)
}

func TestCacheCoalescesConcurrentMisses(t *testing.T) {
	mem := NewMemStore()
	id, err := mem.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, Size)
	for i := range want {
		want[i] = byte(i)
	}
	if err := mem.Write(id, want); err != nil {
		t.Fatal(err)
	}
	mem.Stats().Reset()

	const readers = 16
	slow := &slowStore{
		MemStore: mem,
		started:  make(chan struct{}, readers),
		release:  make(chan struct{}),
	}
	cache := NewCache(slow, 64)

	var wg sync.WaitGroup
	errs := make([]error, readers)
	bufs := make([][]byte, readers)
	for i := 0; i < readers; i++ {
		bufs[i] = make([]byte, Size)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = cache.Read(id, bufs[i])
		}(i)
	}
	// Wait until the flight leader is inside the store read, give the other
	// readers a moment to queue behind its flight, then let it finish. Every
	// waiter must be served from the leader's result.
	<-slow.started
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	close(slow.release)
	wg.Wait()

	for i := 0; i < readers; i++ {
		if errs[i] != nil {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		if string(bufs[i]) != string(want) {
			t.Fatalf("reader %d got wrong page contents", i)
		}
	}
	if got := mem.Stats().Reads(); got != 1 {
		t.Errorf("%d concurrent cold readers performed %d physical reads, want 1", readers, got)
	}
	hits, misses := cache.Counts()
	if misses != 1 {
		t.Errorf("misses = %d, want 1 (the flight leader)", misses)
	}
	if hits != readers-1 {
		t.Errorf("hits = %d, want %d (the flight waiters)", hits, readers-1)
	}
}

func TestCacheShardCount(t *testing.T) {
	cases := []struct{ capacity, want int }{
		{0, 1},  // disabled cache: one pass-through shard
		{8, 1},  // too small to split without starving a shard
		{16, 2}, // 2 shards x 8 pages
		{64, 8}, // 8 shards x 8 pages, the minShardPages floor
		{256, 16},
		{1 << 20, 16}, // capped by maxCacheShards
	}
	for _, c := range cases {
		if got := cacheShardCount(c.capacity); got != c.want {
			t.Errorf("cacheShardCount(%d) = %d, want %d", c.capacity, got, c.want)
		}
	}
	// Capacity must be preserved exactly across the shard split.
	for _, capacity := range []int{0, 1, 8, 17, 100, 1000} {
		c := NewCache(NewMemStore(), capacity)
		total := 0
		for i := range c.shards {
			total += c.shards[i].capacity
		}
		if total != capacity || c.Capacity() != capacity {
			t.Errorf("capacity %d split into %d (Capacity()=%d)", capacity, total, c.Capacity())
		}
	}
}

// TestCacheConcurrentHammer drives readers across many pages concurrently
// with Flush, Invalidate and Write; run under -race it is the shard-locking
// proof, and the content checks catch torn or misrouted pages. Half the
// readers hold their page pinned while they check it, first on a cache of
// half the working set and then on a thrashing 8-page one, where nearly every
// access recycles the frame some other reader just unpinned.
func TestCacheConcurrentHammer(t *testing.T) {
	mem := NewMemStore()
	const pages = 64
	want := make([][]byte, pages)
	for p := 0; p < pages; p++ {
		id, err := mem.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, Size)
		for i := 0; i < Size; i += 8 { // the same tag all over the page: a torn frame shows
			copy(buf[i:], fmt.Sprintf("page-%03d", p))
		}
		want[p] = buf
		if err := mem.Write(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	for _, capacity := range []int{32, 8} {
		cache := NewCache(mem, capacity)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				buf := make([]byte, Size)
				var held *Frame
				var heldPage int
				for i := 0; i < 500; i++ {
					p := (w*31 + i*7) % pages
					if w%2 == 0 {
						if err := cache.Read(ID(p), buf); err != nil {
							t.Errorf("read page %d: %v", p, err)
							return
						}
						if !bytes.Equal(buf, want[p]) {
							t.Errorf("capacity %d: page %d read wrong contents %q", capacity, p, buf[:8])
							return
						}
						continue
					}
					f, err := cache.Pin(ID(p))
					if err != nil {
						t.Errorf("pin page %d: %v", p, err)
						return
					}
					if !bytes.Equal(f.Data()[:], want[p]) {
						t.Errorf("capacity %d: page %d pinned with wrong contents %q", capacity, p, f.Data()[:8])
					}
					if i%10 != 0 {
						cache.Unpin(f)
						continue
					}
					// Keep every tenth pin across the next accesses: its page
					// is evicted under it, and its frame must not be reused.
					if held != nil {
						if !bytes.Equal(held.Data()[:], want[heldPage]) {
							t.Errorf("capacity %d: page %d changed while pinned", capacity, heldPage)
						}
						cache.Unpin(held)
					}
					held, heldPage = f, p
				}
				if held != nil {
					cache.Unpin(held)
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				cache.Flush()
				cache.Invalidate(ID(i % pages))
				if err := cache.Write(ID(i%pages), want[i%pages]); err != nil {
					t.Errorf("write page %d: %v", i%pages, err)
				}
			}
		}()
		wg.Wait()
	}
}
