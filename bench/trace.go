package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
type span struct {
	ID int `json:"id"`
	// Parent is the ID of the span during which this one ran; 0 for a root.
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// Req identifies the replayed request: workload/query, and for a rung
	// workload/query/rung.
	Req     string `json:"req"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced replay that prices tracing runs.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID.
func (t *tracer) start(name, req string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		StartNS: time.Since(t.t0).Nanoseconds()})
	return id
}

// end closes the span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ladderSelf turns the ladder's rung times — the same queries replayed at
// each boundary, innermost first — into self times: a layer's own cost is its
// rung minus the rung directly below it, and the innermost rung keeps its
// whole time. The self times sum to the outermost rung.
func ladderSelf(rungs []float64) []float64 {
	self := make([]float64, len(rungs))
	for i, r := range rungs {
		self[i] = r
		if i > 0 {
			self[i] -= rungs[i-1]
		}
	}
	return self
}
