// Package graph implements the approximate search tier of the SPB-tree
// library: a k-neighbor graph built by NN-descent (Dong et al., WWW'11 —
// sampled local joins with reverse-neighbor union, converging when an
// iteration's update count falls below a threshold) and greedy beam search
// over it with an ef-width sorted candidate/visited set (the DistSet idiom).
//
// The package is deliberately substrate-free: nodes are dense indices
// 0..n-1, and every distance evaluation goes through a caller-supplied
// callback, so the tree layer can route construction through its counted,
// threshold-aware metric kernels and search through its RAF batch reads.
// Both callbacks follow the DistanceAtMost contract: the reported distance
// is exact whenever within is true, and within ⇔ d ≤ threshold.
package graph

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// DistAtMost evaluates the distance between nodes i and j against an
// early-abandon threshold t (+Inf disables abandoning): within ⇔ d ≤ t, and
// d is exact whenever within holds.
type DistAtMost func(i, j int, t float64) (d float64, within bool)

// EvalBatch evaluates the query against a block of nodes with early-abandon
// threshold t, filling d and within (within[i] ⇔ d[i] ≤ t, d[i] exact when
// within[i]). Implementations may read storage; a returned error aborts the
// search with the candidates accumulated so far.
type EvalBatch func(nodes []int32, t float64, d []float64, within []bool) error

// Options configures Build.
type Options struct {
	// K is the number of neighbors kept per node; 0 selects 16.
	K int
	// Rho is the NN-descent sample rate: each iteration joins about ρK new
	// neighbors (and as many sampled reverse neighbors) per node. 0 selects
	// 0.5, the paper's default.
	Rho float64
	// MaxIters caps the local-join iterations; 0 selects 12.
	MaxIters int
	// Delta is the convergence threshold: iteration stops once an iteration
	// applies fewer than Delta·K·n neighbor updates. 0 selects 0.002.
	Delta float64
	// Entries is the number of fixed search entry points sampled at build
	// time; 0 selects 8 (capped at n). Beyond the sample, Build appends one
	// representative per weakly-connected component the sample missed: the
	// k-neighbor graph of clustered data is disconnected (one island per
	// cluster), and a beam search can only ever reach components it starts
	// in, so full coverage is a correctness matter, not a tuning knob.
	Entries int
	// Seed seeds the sampling; 0 means 1.
	Seed int64
}

// withDefaults resolves zero fields to their defaults.
func (o Options) withDefaults() Options {
	if o.K == 0 {
		o.K = 16
	}
	if o.Rho == 0 {
		o.Rho = 0.5
	}
	if o.MaxIters == 0 {
		o.MaxIters = 12
	}
	if o.Delta == 0 {
		o.Delta = 0.002
	}
	if o.Entries == 0 {
		o.Entries = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Graph is a built k-neighbor graph over n nodes. IDs, Offs, BaseCount and
// BaseSize are bookkeeping the owning tree attaches for query-time object
// reads and persistence staleness checks; Build leaves them zero.
type Graph struct {
	// K is the neighbor-list stride of Nbrs.
	K int
	// Nbrs is the flattened adjacency: node v's neighbors are
	// Nbrs[v*K:(v+1)*K] in ascending (distance, index) order, -1-padded when
	// v has fewer than K neighbors.
	Nbrs []int32
	// Entries are the fixed beam-search entry points.
	Entries []int32
	// IDs maps node index to object ID.
	IDs []uint64
	// Offs maps node index to the object's RAF byte offset.
	Offs []uint64
	// BaseCount and BaseSize echo the RAF record count and byte size the
	// graph was built against, so a loaded graph can be checked against its
	// substrate.
	BaseCount uint64
	BaseSize  uint64

	// revOff/revNbrs are the reverse adjacency in CSR form — node v's
	// in-neighbors are revNbrs[revOff[v]:revOff[v+1]], ascending. They are
	// derived from Nbrs by buildReverse (Build and Decode both call it) and
	// never persisted: Search expands the symmetrized graph, because greedy
	// search over out-edges alone can strand whole regions — u keeping v as
	// a neighbor does not imply v keeps u, and the entry-point component
	// cover reasons about undirected reachability.
	revOff  []int32
	revNbrs []int32
}

// Len returns the number of nodes.
func (g *Graph) Len() int {
	if g.K == 0 {
		return 0
	}
	return len(g.Nbrs) / g.K
}

// Neighbors returns node v's adjacency slice (-1 entries are padding).
func (g *Graph) Neighbors(v int32) []int32 {
	return g.Nbrs[int(v)*g.K : (int(v)+1)*g.K]
}

// reverseNeighbors returns the nodes keeping v in their adjacency list,
// ascending (empty when buildReverse has not run).
func (g *Graph) reverseNeighbors(v int32) []int32 {
	if len(g.revOff) != g.Len()+1 {
		return nil
	}
	return g.revNbrs[g.revOff[v]:g.revOff[v+1]]
}

// buildReverse derives revOff/revNbrs from Nbrs (counting sort, so each
// in-neighbor list comes out ascending). Deterministic: the same adjacency
// always yields the same reverse structure, which keeps a decoded graph
// byte-equivalent to the built one.
func (g *Graph) buildReverse() {
	n := g.Len()
	g.revOff = make([]int32, n+1)
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(int32(v)) {
			if u < 0 {
				break
			}
			g.revOff[u+1]++
		}
	}
	for i := 0; i < n; i++ {
		g.revOff[i+1] += g.revOff[i]
	}
	g.revNbrs = make([]int32, g.revOff[n])
	fill := make([]int32, n)
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(int32(v)) {
			if u < 0 {
				break
			}
			g.revNbrs[g.revOff[u]+fill[u]] = int32(v)
			fill[u]++
		}
	}
}

// nbr is one neighbor-list entry during construction.
type nbr struct {
	idx   int32
	d     float64
	fresh bool // not yet used in a local join
}

// nbrLess orders neighbor lists by (distance, index) so every list — and
// therefore the final adjacency — is deterministic.
func nbrLess(a, b nbr) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.idx < b.idx
}

// Build runs NN-descent over n nodes, fanning the phases that can be split
// out over runtime.GOMAXPROCS(0) goroutines; the distance callback must be
// safe for concurrent use. The graph, and the set of distance calls made, is
// the same for every core count. Build also returns how many times it called
// dist, so a caller can charge the whole construction to a shared counter at
// once instead of on every call. On ctx cancellation Build returns a nil
// graph, the calls made so far and the context's error once every worker has
// exited — construction is all-or-nothing.
func Build(ctx context.Context, n int, dist DistAtMost, opts Options) (*Graph, int64, error) {
	return build(ctx, n, dist, opts, runtime.GOMAXPROCS(0))
}

// build is Build on a given number of workers.
func build(ctx context.Context, n int, dist DistAtMost, opts Options, workers int) (*Graph, int64, error) {
	opts = opts.withDefaults()
	k := opts.K
	if k > n-1 {
		k = n - 1
	}
	if n <= 1 || k <= 0 {
		g := &Graph{K: opts.K}
		if n == 1 {
			g.Nbrs = make([]int32, opts.K)
			for i := range g.Nbrs {
				g.Nbrs[i] = -1
			}
			g.Entries = []int32{0}
		}
		g.buildReverse()
		return g, 0, nil
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	b := &builder{n: n, k: k, dist: dist, workers: workers, lists: make([][]nbr, n), worstNbr: make([]nbr, n)}

	// Random initialization: k distinct neighbors per node. Every list is
	// still empty, so every threshold is +Inf and every initial entry carries
	// an exact distance.
	var pairs []uint64
	seen := make(map[int32]struct{}, k)
	for v := 0; v < n; v++ {
		clear(seen)
		for len(seen) < k {
			u := int32(rng.Intn(n))
			if int(u) == v {
				continue
			}
			if _, ok := seen[u]; ok {
				continue
			}
			seen[u] = struct{}{}
			pairs = append(pairs, pairKey(int32(v), u))
		}
	}
	b.pairs = pairs
	if _, err := b.join(ctx); err != nil {
		return nil, b.calls, err
	}

	// Local-join iterations: sampled new/old forward and reverse candidates,
	// new×new and new×old pairs, updates applied in pair order.
	s := int(math.Ceil(opts.Rho * float64(k)))
	if s < 1 {
		s = 1
	}
	budget := int(opts.Delta * float64(k) * float64(n))
	for iter := 0; iter < opts.MaxIters; iter++ {
		if ctx.Err() != nil {
			return nil, b.calls, buildCanceled(ctx)
		}
		updates, err := b.iterate(ctx, rng, s)
		if err != nil {
			return nil, b.calls, err
		}
		if updates <= budget {
			break
		}
	}

	g := &Graph{K: opts.K, Nbrs: make([]int32, n*opts.K)}
	for v := 0; v < n; v++ {
		list := b.lists[v]
		sort.Slice(list, func(i, j int) bool { return nbrLess(list[i], list[j]) })
		row := g.Nbrs[v*opts.K : (v+1)*opts.K]
		for i := range row {
			if i < len(list) {
				row[i] = list[i].idx
			} else {
				row[i] = -1
			}
		}
	}
	// Fixed entry points, sampled once so searches are deterministic.
	ne := opts.Entries
	if ne > n {
		ne = n
	}
	g.Entries = make([]int32, 0, ne)
	es := make(map[int32]struct{}, ne)
	for len(g.Entries) < ne {
		e := int32(rng.Intn(n))
		if _, ok := es[e]; ok {
			continue
		}
		es[e] = struct{}{}
		g.Entries = append(g.Entries, e)
	}
	g.Entries = coverComponents(g, g.Entries)
	sort.Slice(g.Entries, func(i, j int) bool { return g.Entries[i] < g.Entries[j] })
	g.buildReverse()
	return g, b.calls, nil
}

// coverComponents extends entries so every weakly-connected component of the
// adjacency holds at least one entry point. Clustered data yields one graph
// island per cluster; a beam search can never leave the components its entry
// points start in, so an uncovered island is a recall hole for every query
// landing there. The appended representative is each uncovered component's
// smallest node index — deterministic, independent of the union order.
func coverComponents(g *Graph, entries []int32) []int32 {
	n := g.Len()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(int32(v)) {
			if u < 0 {
				break
			}
			if ru, rv := find(u), find(int32(v)); ru != rv {
				parent[ru] = rv
			}
		}
	}
	covered := make(map[int32]struct{}, len(entries))
	for _, e := range entries {
		covered[find(e)] = struct{}{}
	}
	// rep[root] is the component's smallest member; walking v ascending fills
	// it with the first member seen.
	rep := make(map[int32]int32)
	var missing []int32
	for v := 0; v < n; v++ {
		r := find(int32(v))
		if _, ok := rep[r]; ok {
			continue
		}
		rep[r] = int32(v)
		if _, ok := covered[r]; !ok {
			missing = append(missing, int32(v))
		}
	}
	return append(entries, missing...)
}

// builder is the NN-descent working state. The round buffers below it grow
// to the largest round and are reused by every later one; they die with the
// builder when Build returns.
type builder struct {
	n, k    int
	dist    DistAtMost
	workers int
	lists   [][]nbr
	// worstNbr[v] is the largest entry of lists[v] by (distance, index) once
	// the list holds k; insert keeps it current.
	worstNbr []nbr
	calls    int64 // distance calls made so far

	pairs  []uint64  // the round's candidate pairs; dedup sorts and uniques them
	sorted []uint64  // dedup's bucket-sorted copy of pairs
	bucket []int     // bucket[v] is where pairs with smaller endpoint v start in sorted; n+1 entries
	next   []int     // next[v] is where bucket v's filled part ends in sorted
	thr    []float64 // worst(v) for every node, as the round began
	ds     []float64 // join's distance for each pair
	within []bool    // whether the pair was evaluated and came within its threshold

	// iterate's per-round scratch, reused from round to round.
	fwdNew, fwdOld adjacency // each node's sampled fresh and its old neighbours
	revNew, revOld adjacency // their reverses
	freshIdx       []int
	news, olds     []int32
	sample         []int32 // appendSample's copy of the list it samples
}

// grain is the least number of items a goroutine is handed: below it,
// starting the goroutine costs more than the work saves.
const grain = 256

// buildCanceled is the error every canceled construction phase returns.
func buildCanceled(ctx context.Context) error {
	return fmt.Errorf("graph: build canceled: %w", context.Cause(ctx))
}

// fanOut splits [0, total) into at most b.workers contiguous chunks of at
// least grain items, runs fn on each on its own goroutine, and returns once
// every chunk has, with the first error in chunk order. The chunks must
// write disjoint state, so the result cannot depend on the split.
func (b *builder) fanOut(ctx context.Context, total int, fn func(lo, hi int) error) error {
	w := min(b.workers, total/grain)
	if w <= 1 {
		if ctx.Err() != nil {
			return buildCanceled(ctx)
		}
		return fn(0, total)
	}
	errs := make([]error, w)
	var wg sync.WaitGroup
	for j := 0; j < w; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			if ctx.Err() != nil {
				errs[j] = buildCanceled(ctx)
				return
			}
			errs[j] = fn(j*total/w, (j+1)*total/w)
		}(j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// worst returns node v's current k-th neighbor distance (+Inf while the list
// is not full) — the insertion threshold.
func (b *builder) worst(v int32) float64 {
	if len(b.lists[v]) < b.k {
		return math.Inf(1)
	}
	return b.worstNbr[v].d
}

// contains reports whether u is already in v's list.
func (b *builder) contains(v, u int32) bool {
	for _, e := range b.lists[v] {
		if e.idx == u {
			return true
		}
	}
	return false
}

// insert offers (u, d) to v's list, keeping the k best by (distance, index).
// A full list rejects a candidate that does not rank before its cached worst
// entry without a scan: a duplicate of an entry ranks no better than that
// entry either way, so the scan would have rejected it too.
func (b *builder) insert(v, u int32, d float64) bool {
	cand := nbr{idx: u, d: d, fresh: true}
	list := b.lists[v]
	full := len(list) == b.k
	if full && !nbrLess(cand, b.worstNbr[v]) {
		return false
	}
	wi := -1 // slot of the cached worst entry
	for i, e := range list {
		if e.idx == u {
			return false
		}
		if full && e.idx == b.worstNbr[v].idx {
			wi = i
		}
	}
	if full {
		list[wi] = cand
	} else {
		list = append(list, cand)
		b.lists[v] = list
		if len(list) < b.k {
			return true
		}
	}
	w := list[0]
	for _, e := range list[1:] {
		if nbrLess(w, e) {
			w = e
		}
	}
	b.worstNbr[v] = w
	return true
}

// pairKey packs an unordered node pair canonically (smaller index high).
func pairKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// resize returns buf with length n, reusing its array when it is big enough.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// dedup sorts b.pairs ascending and drops repeats. A counting sort on the
// smaller endpoint (a pair's high word) scatters the list into n buckets,
// the buckets are sorted and uniqued in parallel, and the unique runs are
// packed back into b.pairs in bucket order. It is the same order one
// slices.Sort of the whole list gives, but that sort is serial and made
// construction about a third slower (DESIGN.md §14.1).
func (b *builder) dedup(ctx context.Context) error {
	n, pairs := b.n, b.pairs
	b.bucket = resize(b.bucket, n+1)
	clear(b.bucket)
	for _, p := range pairs {
		b.bucket[p>>32+1]++
	}
	for v := 0; v < n; v++ {
		b.bucket[v+1] += b.bucket[v]
	}
	// next[v] serves as bucket v's scatter cursor, then marks the end of its
	// unique run.
	b.next = append(b.next[:0], b.bucket[:n]...)
	b.sorted = resize(b.sorted, len(pairs))
	for _, p := range pairs {
		v := p >> 32
		b.sorted[b.next[v]] = p
		b.next[v]++
	}
	err := b.fanOut(ctx, len(pairs), func(lo, hi int) error {
		// A chunk takes the buckets starting inside it, so none is split.
		for v := sort.SearchInts(b.bucket[:n], lo); v < n && b.bucket[v] < hi; v++ {
			run := b.sorted[b.bucket[v]:b.next[v]]
			slices.Sort(run)
			b.next[v] = b.bucket[v] + len(slices.Compact(run))
		}
		return nil
	})
	if err != nil {
		return err
	}
	pairs = pairs[:0]
	for v := 0; v < n; v++ {
		pairs = append(pairs, b.sorted[b.bucket[v]:b.next[v]]...)
	}
	b.pairs = pairs
	return nil
}

// join deduplicates the round's pairs, evaluates them in parallel, and
// applies the updates serially in ascending pair order, returning how many
// neighbor-list insertions they made. A pair already adjacent is skipped; any
// other is evaluated against max(worst(u), worst(v)) as the round began —
// an insertion into either list only happens below that list's worst, so
// past it the pair cannot update anything. Thresholds are snapshotted before
// any update of the round is applied and updates are applied in one fixed
// order, so the result is independent of the worker count.
func (b *builder) join(ctx context.Context) (int, error) {
	if err := b.dedup(ctx); err != nil {
		return 0, err
	}
	pairs := b.pairs
	b.thr = resize(b.thr, b.n)
	for v := range b.thr {
		b.thr[v] = b.worst(int32(v))
	}
	b.ds = resize(b.ds, len(pairs))
	b.within = resize(b.within, len(pairs))
	// Each chunk counts its distance calls locally and adds them to the
	// round's total once, so the workers share no counter per pair.
	var calls atomic.Int64
	err := b.fanOut(ctx, len(pairs), func(lo, hi int) error {
		n := int64(0)
		defer func() { calls.Add(n) }()
		for i := lo; i < hi; i++ {
			if i%grain == 0 && ctx.Err() != nil {
				return buildCanceled(ctx)
			}
			u, v := int32(pairs[i]>>32), int32(uint32(pairs[i]))
			if b.contains(u, v) {
				b.within[i] = false
				continue
			}
			b.ds[i], b.within[i] = b.dist(int(u), int(v), math.Max(b.thr[u], b.thr[v]))
			n++
		}
		return nil
	})
	b.calls += calls.Load()
	if err != nil {
		return 0, err
	}

	updates := 0
	for i, p := range pairs {
		if !b.within[i] {
			continue
		}
		u, v := int32(p>>32), int32(uint32(p))
		if b.insert(u, v, b.ds[i]) {
			updates++
		}
		if b.insert(v, u, b.ds[i]) {
			updates++
		}
	}
	return updates, nil
}

// adjacency is one list per node in one flat buffer: node v's list is
// idx[off[v]:off[v+1]]. The builder refills its four in place every round.
type adjacency struct {
	off []int32 // n+1 entries
	idx []int32
}

func (a *adjacency) row(v int) []int32 { return a.idx[a.off[v]:a.off[v+1]] }

// transpose fills a with t's reverse lists over n nodes: u's list holds
// every v whose list in t holds u, in ascending v.
func (a *adjacency) transpose(t *adjacency, n int) {
	a.off = resize(a.off, n+1)
	clear(a.off)
	for _, u := range t.idx {
		a.off[u]++
	}
	for v := 1; v < n; v++ {
		a.off[v] += a.off[v-1]
	}
	a.off[n] = int32(len(t.idx))
	a.idx = resize(a.idx, len(t.idx))
	// off[u] is where u's list ends; filling from the back moves it to where
	// the list starts.
	for v := n - 1; v >= 0; v-- {
		r := t.row(v)
		for i := len(r) - 1; i >= 0; i-- {
			u := r[i]
			a.off[u]--
			a.idx[a.off[u]] = int32(v)
		}
	}
}

// iterate runs one NN-descent local join round and returns its update count.
func (b *builder) iterate(ctx context.Context, rng *rand.Rand, s int) (int, error) {
	n := b.n
	fwdNew, fwdOld := &b.fwdNew, &b.fwdOld
	fwdNew.off, fwdOld.off = resize(fwdNew.off, n+1), resize(fwdOld.off, n+1)
	fwdNew.idx, fwdOld.idx = fwdNew.idx[:0], fwdOld.idx[:0]
	freshIdx := b.freshIdx
	for v := 0; v < n; v++ {
		fwdNew.off[v], fwdOld.off[v] = int32(len(fwdNew.idx)), int32(len(fwdOld.idx))
		list := b.lists[v]
		freshIdx = freshIdx[:0]
		for i, e := range list {
			if e.fresh {
				freshIdx = append(freshIdx, i)
			} else {
				fwdOld.idx = append(fwdOld.idx, e.idx)
			}
		}
		// Sample up to s fresh neighbors for this round's joins and retire
		// them (they will have been joined against everything sampled here).
		rng.Shuffle(len(freshIdx), func(i, j int) { freshIdx[i], freshIdx[j] = freshIdx[j], freshIdx[i] })
		for _, i := range freshIdx[:min(len(freshIdx), s)] {
			fwdNew.idx = append(fwdNew.idx, list[i].idx)
			list[i].fresh = false
		}
	}
	fwdNew.off[n], fwdOld.off[n] = int32(len(fwdNew.idx)), int32(len(fwdOld.idx))
	b.freshIdx = freshIdx
	b.revNew.transpose(fwdNew, n)
	b.revOld.transpose(fwdOld, n)

	pairs := b.pairs[:0]
	news, olds := b.news, b.olds
	for v := 0; v < n; v++ {
		news = append(news[:0], fwdNew.row(v)...)
		news = b.appendSample(news, b.revNew.row(v), s, rng)
		olds = append(olds[:0], fwdOld.row(v)...)
		olds = b.appendSample(olds, b.revOld.row(v), s, rng)
		for i := 0; i < len(news); i++ {
			for j := i + 1; j < len(news); j++ {
				if news[i] != news[j] {
					pairs = append(pairs, pairKey(news[i], news[j]))
				}
			}
			for _, o := range olds {
				if news[i] != o {
					pairs = append(pairs, pairKey(news[i], o))
				}
			}
		}
	}
	b.pairs, b.news, b.olds = pairs, news, olds
	return b.join(ctx)
}

// appendSample appends up to s elements of src (sampled without replacement)
// to dst, skipping values already present.
func (b *builder) appendSample(dst, src []int32, s int, rng *rand.Rand) []int32 {
	if len(src) > s {
		// Partial Fisher-Yates over the builder's scratch copy: deterministic
		// given rng.
		tmp := append(b.sample[:0], src...)
		for i := 0; i < s; i++ {
			j := i + rng.Intn(len(tmp)-i)
			tmp[i], tmp[j] = tmp[j], tmp[i]
		}
		b.sample = tmp
		src = tmp[:s]
	}
outer:
	for _, x := range src {
		for _, y := range dst {
			if y == x {
				continue outer
			}
		}
		dst = append(dst, x)
	}
	return dst
}
