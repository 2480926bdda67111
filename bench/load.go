package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"spbtree/internal/core"
	"spbtree/internal/metric"
)

// opKind names the operation types whose latencies are reported apart.
type opKind uint8

const (
	opKNN opKind = iota
	opRange
	opWrite
	numKinds
)

// op is one client-visible operation of a workload's fixed sequence.
type op struct {
	kind opKind
	// obj is the query object, or for a write the object written.
	obj metric.Object
	// toggle makes a write delete obj if it is live and insert it otherwise;
	// a plain write inserts.
	toggle bool
}

// answer is what one operation returned, in the form the oracle compares.
type answer struct {
	ids   []uint64
	dists []float64
	// qs is the QueryStats the called boundary reported; over HTTP only
	// Compdists, IndexPA (holding the response's page_accesses), Elapsed and
	// Plan survive the wire.
	qs core.QueryStats
}

// doFunc performs one operation and returns its answer. An error means the
// operation failed: an engine error, a partial result, a non-2xx status.
type doFunc func(ctx context.Context, o op) (answer, error)

// passResult is what one pass over the op sequence measured.
type passResult struct {
	wall time.Duration
	// lat holds each completed operation's latency in ms by kind; queueMS the
	// part of a read's latency the engine's own clock does not account for.
	lat     [numKinds][]float64
	queueMS []float64
	failed  int
}

func (p *passResult) ops() int {
	n := p.failed
	for _, l := range p.lat {
		n += len(l)
	}
	return n
}

// runClosed runs ops once with a closed loop of clients: each client sends
// its next operation only when its previous one has returned, taking the next
// unclaimed op of the sequence, so a slower system is offered less load.
// Latency is the harness's own clock around the call.
func runClosed(ctx context.Context, clients int, ops []op, do doFunc) passResult {
	var res passResult
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local passResult
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					break
				}
				t0 := time.Now()
				ans, err := do(ctx, ops[i])
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				if err != nil {
					local.failed++
					continue
				}
				local.lat[ops[i].kind] = append(local.lat[ops[i].kind], ms)
				if ops[i].kind != opWrite && ans.qs.Elapsed > 0 {
					local.queueMS = append(local.queueMS, ms-float64(ans.qs.Elapsed)/float64(time.Millisecond))
				}
			}
			mu.Lock()
			for k := range res.lat {
				res.lat[k] = append(res.lat[k], local.lat[k]...)
			}
			res.queueMS = append(res.queueMS, local.queueMS...)
			res.failed += local.failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// openResult is what one open-loop step measured.
type openResult struct {
	rate float64
	// fromDueMS is each completed request's latency from the instant it was
	// due to be sent, so a stall is charged to every request it delays.
	fromDueMS []float64
	// lateMS is how late the generator itself sent each request.
	lateMS []float64
	sent   int
	failed int
	// backlog is the number of requests due but unanswered when the step
	// ended.
	backlog int
}

// maxInFlight bounds the open-loop generator's outstanding requests. It is
// far above any backlog a passing step may leave, so it only keeps a
// collapsed server from exhausting sockets.
const maxInFlight = 256

// runOpen sends ops at a fixed rate for dur, each request due at start +
// i/rate regardless of how the earlier ones fared, then waits for the
// stragglers. The ops cycle if the step outlasts them.
func runOpen(ctx context.Context, rate float64, dur time.Duration, ops []op, do doFunc) openResult {
	res := openResult{rate: rate}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var done atomic.Int64
	slots := make(chan struct{}, maxInFlight)
	start := time.Now()
	total := int(rate * dur.Seconds())
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		slots <- struct{}{}
		sentAt := time.Now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-slots }()
			_, err := do(ctx, ops[i%len(ops)])
			end := time.Now()
			done.Add(1)
			mu.Lock()
			defer mu.Unlock()
			res.lateMS = append(res.lateMS, float64(sentAt.Sub(due))/float64(time.Millisecond))
			if err != nil {
				res.failed++
				return
			}
			res.fromDueMS = append(res.fromDueMS, float64(end.Sub(due))/float64(time.Millisecond))
		}(i)
	}
	if d := time.Until(start.Add(dur)); d > 0 {
		time.Sleep(d)
	}
	res.sent = total
	res.backlog = total - int(done.Load())
	wg.Wait()
	return res
}
