package page

import (
	"testing"

	"spbtree/internal/obs"
)

// recordingTracer counts events per kind, mirroring what QueryStats derives
// from the cache counters.
type recordingTracer struct {
	hits, misses, reads, writes int
}

func (r *recordingTracer) Event(e obs.Event) {
	switch e.Kind {
	case obs.EvCacheHit:
		r.hits++
	case obs.EvCacheMiss:
		r.misses++
	case obs.EvPageRead:
		r.reads++
	case obs.EvPageWrite:
		r.writes++
	}
}

func TestCacheTracerEvents(t *testing.T) {
	c := NewCache(NewMemStore(), 4)
	var tr recordingTracer
	c.SetTracer(&tr, obs.SrcIndex)

	id, err := c.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, Size)
	if err := c.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	if err := c.Read(id, buf); err != nil { // miss + physical read
		t.Fatal(err)
	}
	if err := c.Read(id, buf); err != nil { // hit
		t.Fatal(err)
	}
	if tr.writes != 1 || tr.misses != 1 || tr.reads != 1 || tr.hits != 1 {
		t.Errorf("events = %+v, want 1 of each", tr)
	}
	hits, misses := c.Counts()
	if int(hits) != tr.hits || int(misses) != tr.misses {
		t.Errorf("Counts() = (%d, %d), disagrees with tracer %+v", hits, misses, tr)
	}
}

// TestCacheTracerZeroAlloc pins the satellite-5 requirement: the cache-hit
// read path with an installed no-op tracer performs zero heap allocations, so
// leaving instrumentation wired costs nothing on the hot path.
func TestCacheTracerZeroAlloc(t *testing.T) {
	c := NewCache(NewMemStore(), 4)
	id, err := c.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, Size)
	if err := c.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := c.Read(id, buf); err != nil { // warm the cache
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		tracer obs.Tracer
	}{
		{"no tracer", nil},
		{"nop tracer", obs.NopTracer{}},
	} {
		c.SetTracer(tc.tracer, obs.SrcIndex)
		if n := testing.AllocsPerRun(200, func() {
			if err := c.Read(id, buf); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: cache-hit Read allocates %v per run, want 0", tc.name, n)
		}
	}
}

// TestCachePinnedFrameStable pins the contract the RAF and the B+-tree decode
// under: from Pin to Unpin a frame keeps showing the bytes of the moment it
// was pinned, across Write, Invalidate, Flush and LRU eviction of its page
// (a frame somebody holds is dropped, never reused), while a concurrent
// reader goroutine keeps reading through it under -race; and a Pin costs
// exactly the counters and tracer events of the Read it is, pass-through mode
// included.
func TestCachePinnedFrameStable(t *testing.T) {
	c := NewCache(NewMemStore(), 2)
	ids := make([]ID, 4)
	for i := range ids {
		id, err := c.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		if err := c.Write(id, fillPage(byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	mutations := []struct {
		name string
		do   func(id ID)
	}{
		{"Write", func(id ID) {
			if err := c.Write(id, fillPage(0xEE)); err != nil {
				t.Fatal(err)
			}
		}},
		{"Invalidate", func(id ID) { c.Invalidate(id) }},
		{"Flush", func(ID) { c.Flush() }},
		{"eviction", func(id ID) {
			for round := 0; round < 3; round++ { // thrash: every miss wants a victim
				for _, other := range ids {
					if other != id {
						if err := c.Read(other, make([]byte, Size)); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}},
	}
	for i, m := range mutations {
		id, want := ids[i], byte(i+1)
		f, err := c.Pin(id)
		if err != nil {
			t.Fatal(err)
		}
		v := f.Data()
		stop, done := make(chan struct{}), make(chan struct{})
		go func() { // a reader holding the pin while the page is mutated
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
					if v[0] != want || v[Size-256] != want {
						t.Errorf("%s: pinned frame changed under a concurrent reader", m.name)
						return
					}
				}
			}
		}()
		m.do(id)
		close(stop)
		<-done
		if v[0] != want || v[Size-256] != want {
			t.Errorf("%s: pinned frame reads %#x, want the old %#x", m.name, v[0], want)
		}
		c.Unpin(f)
	}
	if f, err := c.Pin(ids[0]); err != nil || f.Data()[0] != 0xEE {
		t.Errorf("fresh pin after Write: err %v, want the new bytes", err)
	} else {
		c.Unpin(f)
	}

	// Pin and Read are indistinguishable to the counters and the tracer.
	for _, capacity := range []int{0, 4} {
		var counts [2][2]int64
		var events [2]recordingTracer
		for k, read := range []func(c *Cache, id ID) error{
			func(c *Cache, id ID) error { return c.Read(id, make([]byte, Size)) },
			func(c *Cache, id ID) error {
				f, err := c.Pin(id)
				if err == nil {
					c.Unpin(f)
				}
				return err
			},
		} {
			mem := NewMemStore()
			c := NewCache(mem, capacity)
			id, _ := c.Alloc()
			if err := c.Write(id, fillPage(7)); err != nil {
				t.Fatal(err)
			}
			c.Flush()
			c.SetTracer(&events[k], obs.SrcData)
			for i := 0; i < 3; i++ {
				if err := read(c, id); err != nil {
					t.Fatal(err)
				}
			}
			counts[k][0], counts[k][1] = c.Counts()
			if wantReads := int64(1); capacity == 0 {
				wantReads = 3 // pass-through: every read is physical
				if got := mem.Stats().Reads(); got != wantReads {
					t.Errorf("capacity 0: %d physical reads, want %d", got, wantReads)
				}
			} else if got := mem.Stats().Reads(); got != wantReads {
				t.Errorf("capacity %d: %d physical reads, want %d", capacity, got, wantReads)
			}
		}
		if counts[0] != counts[1] || events[0] != events[1] {
			t.Errorf("capacity %d: Read counts %v events %+v, Pin counts %v events %+v",
				capacity, counts[0], events[0], counts[1], events[1])
		}
	}
}

// TestCacheMissRecyclesVictim is the evict-then-reuse rule: a cache at
// capacity serves a miss in the frame of the LRU victim it evicts and
// allocates nothing — no page buffer, no coalescing record — unless the
// victim is still pinned, in which case the victim keeps its frame.
func TestCacheMissRecyclesVictim(t *testing.T) {
	mem := NewMemStore()
	const pages = 64
	for p := 0; p < pages; p++ {
		id, _ := mem.Alloc()
		if err := mem.Write(id, fillPage(byte(p))); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCache(mem, 8)
	next := 0
	miss := func() { // a cyclic scan over 8x the capacity misses every time
		f, err := c.Pin(ID(next % pages))
		if err != nil {
			t.Fatal(err)
		}
		if got := f.Data()[0]; got != byte(next%pages) {
			t.Fatalf("page %d reads %#x", next%pages, got)
		}
		c.Unpin(f)
		next++
	}
	for i := 0; i < 2*pages; i++ { // fill the cache
		miss()
	}
	_, before := c.Counts()
	allocs := testing.AllocsPerRun(200, miss)
	if _, after := c.Counts(); after-before != 201 {
		t.Fatalf("%d misses in 201 runs: the scan is not thrashing", after-before)
	}
	if allocs != 0 && !poisonFrames { // a poisoned frame sits out one eviction
		t.Errorf("a steady-state miss allocates %v objects, want 0", allocs)
	}

	// A pinned victim is not reused: its holder keeps reading its page.
	held, err := c.Pin(ID(next % pages))
	if err != nil {
		t.Fatal(err)
	}
	want := byte(next % pages)
	next++
	for i := 0; i < 4*8; i++ {
		miss()
	}
	if got := held.Data()[0]; got != want {
		t.Errorf("pinned frame reads %#x after its eviction, want %#x", got, want)
	}
	c.Unpin(held)
}

// TestCacheUseAfterUnpinPoisoned: where frames are poisoned (race builds), a
// reader that keeps a frame past Unpin finds poison once the frame's page is
// evicted — in the RAF that is a record length, in the B+-tree an entry
// count, far out of range — not the valid bytes of another page.
func TestCacheUseAfterUnpinPoisoned(t *testing.T) {
	if !poisonFrames {
		t.Skip("frames are poisoned in race builds only")
	}
	c := NewCache(NewMemStore(), 2)
	var ids [3]ID
	for i := range ids {
		ids[i], _ = c.Alloc()
		if err := c.Write(ids[i], fillPage(byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	f, err := c.Pin(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	stale := f.Data()
	c.Unpin(f)
	for _, id := range []ID{ids[0], ids[2]} { // two misses: ids[2] is evicted, then ids[1]
		if err := c.Read(id, make([]byte, Size)); err != nil {
			t.Fatal(err)
		}
	}
	if stale[0] != poisonByte || stale[Size-1] != poisonByte {
		t.Errorf("stale frame reads %#x, want poison %#x", stale[0], poisonByte)
	}
}
