// Package mtree implements the M-tree of Ciaccia, Patella and Zezula — the
// classic compact-partitioning metric access method and the first baseline
// of the paper's evaluation (Tables 6-7, Figs. 12-13) — and, with
// Options.Pivots > 0, the PM-tree of Skopal, Pokorný and Snášel, the hybrid
// the paper's related work discusses (Section 2.1).
//
// An M-tree node holds routing entries ⟨routing object, covering radius,
// distance to parent, child⟩; leaves hold ⟨object, distance to parent⟩.
// Objects are stored inline in the nodes (unlike the SPB-tree's separate
// RAF), which is exactly why its storage footprint and construction I/O are
// larger. Distances to parents enable the standard pruning
// |d(q, parent) − d(parent, o)| > r + r_cov without extra computations.
//
// The PM-tree is the same tree whose routing entries additionally carry
// hyper-ring (HR) intervals of subtree distances to a set of global pivots,
// and whose leaf entries carry the pre-computed pivot distances (PD)
// themselves. The rings sharpen pruning the way the SPB-tree's mapped range
// region does, but the pre-computed distances are stored uncompressed inside
// the index — the storage overhead the paper contrasts with the SPB-tree's
// SFC encoding. With no pivots every ring test is vacuous and every entry is
// its M-tree width, so Pivots: 0 is the M-tree, page for page and count for
// count.
package mtree

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"spbtree/internal/metric"
	"spbtree/internal/page"
	"spbtree/internal/pivot"
)

// Options configures an M-tree.
type Options struct {
	// Distance is the metric; required.
	Distance metric.DistanceFunc
	// Codec decodes objects from node pages; required.
	Codec metric.Codec
	// Pivots is the number of global pivots: 0 is the classic M-tree, n > 0
	// the PM-tree with n HF-selected pivots (fewer when the first load has
	// fewer distinct objects to choose from).
	Pivots int
	// Store backs the tree; nil selects a fresh in-memory store.
	Store page.Store
	// CacheSize is the buffer-cache capacity in pages (default 32; negative
	// disables).
	CacheSize int
	// Seed seeds pivot selection, bulk-load sampling and split promotion;
	// 0 means 1.
	Seed int64
}

// Tree is a disk-based M-tree (or PM-tree, see Options.Pivots).
type Tree struct {
	dist      *metric.Counter
	codec     metric.Codec
	store     *page.Cache
	rng       *rand.Rand
	numPivots int             // Options.Pivots
	pivots    []metric.Object // selected at the first load; fixes entry widths

	rootPage page.ID
	hasRoot  bool
	count    int
}

// entry is the in-memory node entry form. Leaf entries carry pd; routing
// entries carry the covering radius, the subtree page and hr. pd and hr
// have one element per global pivot, none in a plain M-tree.
type entry struct {
	obj     metric.Object
	objLen  int // cached serialized payload length
	dParent float64
	radius  float64
	child   page.ID
	isLeaf  bool
	pd      []float64 // leaf: d(obj, pivot_t)
	hr      []ring    // routing: subtree distance rings
}

type node struct {
	page    page.ID
	leaf    bool
	entries []entry
}

const noPage = ^page.ID(0)

// New creates an empty tree. Global pivots, if any, are selected at BulkLoad
// (or first Insert) time from the data.
func New(opts Options) (*Tree, error) {
	if opts.Distance == nil || opts.Codec == nil {
		return nil, fmt.Errorf("mtree: Distance and Codec are required")
	}
	if opts.Pivots < 0 {
		return nil, fmt.Errorf("mtree: Pivots %d is negative", opts.Pivots)
	}
	store := opts.Store
	if store == nil {
		store = page.NewMemStore()
	}
	cs := opts.CacheSize
	if cs == 0 {
		cs = 32
	}
	if cs < 0 {
		cs = 0
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	return &Tree{
		dist:      metric.NewCounter(opts.Distance),
		codec:     opts.Codec,
		store:     page.NewCache(store, cs),
		rng:       rand.New(rand.NewSource(seed)),
		numPivots: opts.Pivots,
		rootPage:  noPage,
	}, nil
}

// Len returns the number of indexed objects.
func (t *Tree) Len() int { return t.count }

// Pivots returns the global pivot set; empty for a plain M-tree.
func (t *Tree) Pivots() []metric.Object { return t.pivots }

// ResetStats zeroes I/O and distance counters and flushes the cache.
func (t *Tree) ResetStats() {
	t.store.Stats().Reset()
	t.dist.Reset()
	t.store.Flush()
}

// TakeStats reads (page accesses, distance computations) since the reset.
func (t *Tree) TakeStats() (pa, compdists int64) {
	return t.store.Stats().Accesses(), t.dist.Count()
}

// StorageBytes returns the tree's page footprint.
func (t *Tree) StorageBytes() int64 {
	return int64(t.store.NumPages()) * page.Size
}

// --- global pivots and hyper-rings ------------------------------------------

// selectPivots initializes the global pivots (HF, as the PM-tree authors
// use) from the first load; quiet, matching the harness accounting where
// construction compdists count the mapping work. A plain M-tree selects
// nothing and draws nothing from the random stream.
func (t *Tree) selectPivots(objs []metric.Object) error {
	if t.numPivots == 0 {
		return nil
	}
	t.pivots = pivot.HF{}.Select(objs, t.dist.Unwrap(), t.numPivots, t.rng)
	if len(t.pivots) == 0 {
		return fmt.Errorf("mtree: pivot selection failed")
	}
	return nil
}

// pivotDists computes d(o, pivot_t) for every global pivot: a leaf entry's
// pre-computed distances, and once per query the query's.
func (t *Tree) pivotDists(o metric.Object) []float64 {
	pd := make([]float64, len(t.pivots))
	for i, p := range t.pivots {
		pd[i] = t.dist.Distance(o, p)
	}
	return pd
}

// ring is a [min, max] interval of distances to one global pivot.
type ring struct{ lo, hi float64 }

func emptyRings(n int) []ring {
	rs := make([]ring, n)
	for i := range rs {
		rs[i] = ring{lo: math.Inf(1), hi: math.Inf(-1)}
	}
	return rs
}

// expandPD widens the rings to cover one object's pivot distances.
func expandPD(hr []ring, pd []float64) {
	for i, d := range pd {
		if d < hr[i].lo {
			hr[i].lo = d
		}
		if d > hr[i].hi {
			hr[i].hi = d
		}
	}
}

// expandRings widens dst to cover src.
func expandRings(dst []ring, src []ring) {
	for i := range dst {
		if src[i].lo < dst[i].lo {
			dst[i].lo = src[i].lo
		}
		if src[i].hi > dst[i].hi {
			dst[i].hi = src[i].hi
		}
	}
}

// ringsPrune reports whether the query ball (qp, r) misses the hyper-rings:
// some pivot ring lies entirely outside [qp_t − r, qp_t + r].
func ringsPrune(qp []float64, r float64, hr []ring) bool {
	for t, rg := range hr {
		if qp[t]-r > rg.hi || qp[t]+r < rg.lo {
			return true
		}
	}
	return false
}

// ringsLowerBound returns the HR-based lower bound on d(q, o) for any o in
// the subtree.
func ringsLowerBound(qp []float64, hr []ring) float64 {
	var m float64
	for t, rg := range hr {
		if d := qp[t] - rg.hi; d > m {
			m = d
		}
		if d := rg.lo - qp[t]; d > m {
			m = d
		}
	}
	return m
}

// pdLowerBound is max_t |d(q,p_t) − d(o,p_t)|, the lower bound on d(q, o)
// that a leaf entry's pre-computed pivot distances prove.
func pdLowerBound(qp, pd []float64) float64 {
	var m float64
	for t := range qp {
		if d := math.Abs(qp[t] - pd[t]); d > m {
			m = d
		}
	}
	return m
}

// --- queries ---------------------------------------------------------------

// Result is one search answer.
type Result struct {
	Object metric.Object
	Dist   float64
}

// RangeQuery returns every object within distance r of q, pruning subtrees
// by covering balls and hyper-rings and leaf entries by parent and
// pre-computed pivot distances.
func (t *Tree) RangeQuery(q metric.Object, r float64) ([]Result, error) {
	if !t.hasRoot || r < 0 {
		return nil, nil
	}
	var out []Result
	if err := t.rangeSearch(t.rootPage, q, t.pivotDists(q), r, 0, true, &out); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Object.ID() < out[j].Object.ID() })
	return out, nil
}

// rangeSearch descends the subtree. dQParent is d(q, parent routing object),
// valid unless atRoot.
func (t *Tree) rangeSearch(pg page.ID, q metric.Object, qp []float64, r, dQParent float64, atRoot bool, out *[]Result) error {
	n, err := t.readNode(pg)
	if err != nil {
		return err
	}
	for i := range n.entries {
		e := &n.entries[i]
		// Parent-distance pruning: |d(q,parent) − d(parent,e)| lower-bounds
		// d(q, e.obj).
		if !atRoot && math.Abs(dQParent-e.dParent) > r+e.radius {
			continue
		}
		if n.leaf {
			if pdLowerBound(qp, e.pd) > r {
				continue // pre-computed distances prove the miss, no computation
			}
			if d := t.dist.Distance(q, e.obj); d <= r {
				*out = append(*out, Result{Object: e.obj, Dist: d})
			}
			continue
		}
		if ringsPrune(qp, r, e.hr) {
			continue // hyper-ring pruning, no computation
		}
		d := t.dist.Distance(q, e.obj)
		if d <= r+e.radius {
			if err := t.rangeSearch(e.child, q, qp, r, d, false, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// KNN returns the k nearest neighbors of q, best-first over the maximum of
// the ball and hyper-ring lower bounds.
func (t *Tree) KNN(q metric.Object, k int) ([]Result, error) {
	if !t.hasRoot || k <= 0 {
		return nil, nil
	}
	qp := t.pivotDists(q)
	// A bound of 0 from no pivots is no evidence: only a PM-tree may skip an
	// entry on it, so that the M-tree's counts are those of the classic
	// algorithm even when the k-th distance is already 0.
	ringed := len(qp) > 0
	res := &topK{k: k}
	pq := &pqueue{}
	heap.Push(pq, pqItem{dmin: 0, page: t.rootPage, atRoot: true})
	for pq.Len() > 0 {
		item := heap.Pop(pq).(pqItem)
		if item.dmin >= res.bound() {
			break
		}
		n, err := t.readNode(item.page)
		if err != nil {
			return nil, err
		}
		for i := range n.entries {
			e := &n.entries[i]
			if !item.atRoot && math.Abs(item.dParent-e.dParent)-e.radius >= res.bound() {
				continue
			}
			if n.leaf {
				if ringed && pdLowerBound(qp, e.pd) >= res.bound() {
					continue
				}
				res.offer(Result{Object: e.obj, Dist: t.dist.Distance(q, e.obj)})
				continue
			}
			hrLB := ringsLowerBound(qp, e.hr)
			if ringed && hrLB >= res.bound() {
				continue
			}
			d := t.dist.Distance(q, e.obj)
			if dmin := math.Max(math.Max(0, d-e.radius), hrLB); dmin < res.bound() {
				heap.Push(pq, pqItem{dmin: dmin, page: e.child, dParent: d})
			}
		}
	}
	out := res.items
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].Object.ID() < out[j].Object.ID()
	})
	return out, nil
}

type pqItem struct {
	dmin    float64
	page    page.ID
	dParent float64
	atRoot  bool
}

type pqueue []pqItem

func (h pqueue) Len() int            { return len(h) }
func (h pqueue) Less(i, j int) bool  { return h[i].dmin < h[j].dmin }
func (h pqueue) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pqueue) Push(x interface{}) { *h = append(*h, x.(pqItem)) }
func (h *pqueue) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// topK is a bounded max-heap of the best candidates.
type topK struct {
	k     int
	items []Result
}

func (r *topK) bound() float64 {
	if len(r.items) < r.k {
		return math.Inf(1)
	}
	return r.items[0].Dist
}

func (r *topK) offer(x Result) {
	if len(r.items) < r.k {
		r.items = append(r.items, x)
		i := len(r.items) - 1
		for i > 0 {
			p := (i - 1) / 2
			if r.items[p].Dist >= r.items[i].Dist {
				break
			}
			r.items[p], r.items[i] = r.items[i], r.items[p]
			i = p
		}
		return
	}
	if x.Dist >= r.items[0].Dist {
		return
	}
	r.items[0] = x
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		big := i
		if l < len(r.items) && r.items[l].Dist > r.items[big].Dist {
			big = l
		}
		if rr < len(r.items) && r.items[rr].Dist > r.items[big].Dist {
			big = rr
		}
		if big == i {
			break
		}
		r.items[i], r.items[big] = r.items[big], r.items[i]
		i = big
	}
}
