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

// TestCacheViewImmutable pins the borrowed-view contract the RAF and the
// B+-tree decode from: a view keeps showing the bytes of the moment it was
// taken across Write, Invalidate, Flush and LRU eviction of its page (entries
// are replaced, never written through), while a concurrent reader goroutine
// keeps reading through it under -race; and a View costs exactly the counters
// and tracer events of the Read it replaces, pass-through mode included.
func TestCacheViewImmutable(t *testing.T) {
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
			for _, other := range ids {
				if other != id {
					if _, err := c.View(other); err != nil {
						t.Fatal(err)
					}
				}
			}
		}},
	}
	for i, m := range mutations {
		id, want := ids[i], byte(i+1)
		v, err := c.View(id)
		if err != nil {
			t.Fatal(err)
		}
		stop, done := make(chan struct{}), make(chan struct{})
		go func() { // a reader holding the view while the page is mutated
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
					if v[0] != want || v[Size-256] != want {
						t.Errorf("%s: held view changed under a concurrent reader", m.name)
						return
					}
				}
			}
		}()
		m.do(id)
		close(stop)
		<-done
		if v[0] != want || v[Size-256] != want {
			t.Errorf("%s: held view reads %#x, want the old %#x", m.name, v[0], want)
		}
	}
	if v, err := c.View(ids[0]); err != nil || v[0] != 0xEE {
		t.Errorf("fresh view after Write reads %#x (err %v), want the new bytes", v[0], err)
	}

	// View and Read are indistinguishable to the counters and the tracer.
	for _, capacity := range []int{0, 4} {
		var counts [2][2]int64
		var events [2]recordingTracer
		for k, read := range []func(c *Cache, id ID) error{
			func(c *Cache, id ID) error { return c.Read(id, make([]byte, Size)) },
			func(c *Cache, id ID) error { _, err := c.View(id); return err },
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
			t.Errorf("capacity %d: Read counts %v events %+v, View counts %v events %+v",
				capacity, counts[0], events[0], counts[1], events[1])
		}
	}
}
