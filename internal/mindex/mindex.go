// Package mindex implements the M-Index of Novak, Batko and Zezula — the
// third baseline of the paper's evaluation. It generalizes iDistance to
// metric spaces: every object is assigned to the cluster of its nearest
// pivot and keyed by cluster·c + d(o, p_cluster) in a plain B+-tree. Like
// the original, it stores every object's full pre-computed distance vector
// with the data record for pivot filtering — which keeps compdists low but
// makes the index large (the paper's Table 6 shows M-Index storage dwarfing
// the SPB-tree's).
package mindex

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"spbtree/internal/bptree"
	"spbtree/internal/metric"
	"spbtree/internal/page"
	"spbtree/internal/pivot"
	"spbtree/internal/raf"
)

// distBits is the per-cluster key width for quantized distances.
const distBits = 24

// Options configures Build.
type Options struct {
	// Distance is the metric; required.
	Distance metric.DistanceFunc
	// Codec decodes objects from the data file; required.
	Codec metric.Codec
	// NumPivots is the pivot count; 0 means the paper's 20 (chosen
	// randomly, as in its experimental setup).
	NumPivots int
	// IndexStore and DataStore back the B+-tree and data file.
	IndexStore, DataStore page.Store
	// CacheSize is the per-store buffer-cache capacity (default 32).
	CacheSize int
	// Seed seeds pivot sampling; 0 means 1.
	Seed int64
}

// Tree is a built M-Index.
type Tree struct {
	dist   *metric.Counter
	pivots []metric.Object
	dPlus  float64

	bpt       *bptree.Tree
	raf       *raf.File
	idxCache  *page.Cache
	dataCache *page.Cache

	clusterMax []float64 // per-cluster maximum distance to its pivot
	count      int
}

// Result is one search answer.
type Result struct {
	Object metric.Object
	Dist   float64
}

// Build constructs the M-Index.
func Build(objs []metric.Object, opts Options) (*Tree, error) {
	if opts.Distance == nil || opts.Codec == nil {
		return nil, fmt.Errorf("mindex: Distance and Codec are required")
	}
	if len(objs) == 0 {
		return nil, fmt.Errorf("mindex: empty dataset")
	}
	k := opts.NumPivots
	if k == 0 {
		k = 20
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	cache := opts.CacheSize
	if cache == 0 {
		cache = 32
	}
	t := &Tree{dist: metric.NewCounter(opts.Distance), dPlus: opts.Distance.MaxDistance()}
	rng := rand.New(rand.NewSource(seed))
	t.pivots = pivot.Random{}.Select(objs, t.dist, k, rng)
	if len(t.pivots) == 0 {
		return nil, fmt.Errorf("mindex: no pivots selected")
	}
	t.clusterMax = make([]float64, len(t.pivots))

	idxStore := opts.IndexStore
	if idxStore == nil {
		idxStore = page.NewMemStore()
	}
	dataStore := opts.DataStore
	if dataStore == nil {
		dataStore = page.NewMemStore()
	}
	t.idxCache = page.NewCache(idxStore, cache)
	t.dataCache = page.NewCache(dataStore, cache)
	var err error
	t.bpt, err = bptree.New(t.idxCache, bptree.Options{})
	if err != nil {
		return nil, err
	}
	t.raf = raf.New(t.dataCache, recordCodec{dims: len(t.pivots), inner: opts.Codec})

	type mapped struct {
		rec *record
		key uint64
	}
	ms := make([]mapped, len(objs))
	for i, o := range objs {
		rec := &record{obj: o, vec: t.phi(o)}
		cluster, d := nearest(rec.vec)
		if d > t.clusterMax[cluster] {
			t.clusterMax[cluster] = d
		}
		ms[i] = mapped{rec: rec, key: t.key(cluster, d)}
	}
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].key != ms[j].key {
			return ms[i].key < ms[j].key
		}
		return ms[i].rec.obj.ID() < ms[j].rec.obj.ID()
	})
	entries := make([]bptree.Pair, len(ms))
	for i, m := range ms {
		off, err := t.raf.Append(m.rec)
		if err != nil {
			return nil, err
		}
		entries[i] = bptree.Pair{Key: m.key, Val: off}
	}
	if err := t.raf.Flush(); err != nil {
		return nil, err
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Less(entries[j]) })
	if err := t.bpt.BulkLoad(entries); err != nil {
		return nil, err
	}
	t.count = len(objs)
	return t, nil
}

func (t *Tree) phi(o metric.Object) []float64 {
	vec := make([]float64, len(t.pivots))
	for i, p := range t.pivots {
		vec[i] = t.dist.Distance(o, p)
	}
	return vec
}

func nearest(vec []float64) (int, float64) {
	best, bd := 0, vec[0]
	for i := 1; i < len(vec); i++ {
		if vec[i] < bd {
			best, bd = i, vec[i]
		}
	}
	return best, bd
}

func (t *Tree) cell(d float64) uint64 {
	if d < 0 {
		d = 0
	}
	c := uint64(d / t.dPlus * float64(uint64(1)<<distBits-1))
	if max := uint64(1)<<distBits - 1; c > max {
		c = max
	}
	return c
}

func (t *Tree) key(cluster int, d float64) uint64 {
	return uint64(cluster)<<distBits | t.cell(d)
}

// Len returns the number of indexed objects.
func (t *Tree) Len() int { return t.count }

// Insert adds one object.
func (t *Tree) Insert(o metric.Object) error {
	rec := &record{obj: o, vec: t.phi(o)}
	cluster, d := nearest(rec.vec)
	if d > t.clusterMax[cluster] {
		t.clusterMax[cluster] = d
	}
	off, err := t.raf.Append(rec)
	if err != nil {
		return err
	}
	if err := t.raf.Flush(); err != nil {
		return err
	}
	if err := t.bpt.Insert(t.key(cluster, d), off); err != nil {
		return err
	}
	t.count++
	return nil
}

// RangeQuery returns every object within r of q: per-cluster ring scans on
// the B+-tree, pivot filtering on the stored distance vectors, then
// verification.
func (t *Tree) RangeQuery(q metric.Object, r float64) ([]Result, error) {
	if r < 0 {
		return nil, nil
	}
	qvec := t.phi(q)
	var out []Result
	if err := t.rangeInto(q, qvec, r, func(res Result) { out = append(out, res) }); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Object.ID() < out[j].Object.ID() })
	return out, nil
}

func (t *Tree) rangeInto(q metric.Object, qvec []float64, r float64, emit func(Result)) error {
	for cluster := range t.pivots {
		dq := qvec[cluster]
		if dq-r > t.clusterMax[cluster] {
			continue // the ring misses the whole cluster
		}
		lo := t.key(cluster, math.Max(0, dq-r))
		hi := t.key(cluster, math.Min(t.dPlus, dq+r))
		c := t.bpt.Seek(lo)
		for ; c.Valid() && c.Key() <= hi; c.Next() {
			obj, err := t.raf.Read(c.Val())
			if err != nil {
				return err
			}
			rec := obj.(*record)
			// Pivot filtering on the stored distance vector: costs no
			// distance computations.
			ok := true
			for j, d := range rec.vec {
				if math.Abs(qvec[j]-d) > r {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if d := t.dist.Distance(q, rec.obj); d <= r {
				emit(Result{Object: rec.obj, Dist: d})
			}
		}
		if err := c.Err(); err != nil {
			return err
		}
	}
	return nil
}

// KNN returns the k nearest neighbors via iteratively widened range queries
// (the standard iDistance search strategy): start from a small radius and
// double until k answers are inside, memoizing verified objects so repeated
// rings never recompute a distance.
func (t *Tree) KNN(q metric.Object, k int) ([]Result, error) {
	if k <= 0 || t.count == 0 {
		return nil, nil
	}
	qvec := t.phi(q)
	verified := map[uint64]Result{}
	r := t.dPlus / 128
	for {
		// Collect within the current radius, reusing memoized results.
		for cluster := range t.pivots {
			dq := qvec[cluster]
			if dq-r > t.clusterMax[cluster] {
				continue
			}
			lo := t.key(cluster, math.Max(0, dq-r))
			hi := t.key(cluster, math.Min(t.dPlus, dq+r))
			c := t.bpt.Seek(lo)
			for ; c.Valid() && c.Key() <= hi; c.Next() {
				obj, err := t.raf.Read(c.Val())
				if err != nil {
					return nil, err
				}
				rec := obj.(*record)
				if _, done := verified[rec.obj.ID()]; done {
					continue
				}
				ok := true
				for j, d := range rec.vec {
					if math.Abs(qvec[j]-d) > r {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				verified[rec.obj.ID()] = Result{Object: rec.obj, Dist: t.dist.Distance(q, rec.obj)}
			}
			if err := c.Err(); err != nil {
				return nil, err
			}
		}
		within := make([]Result, 0, len(verified))
		for _, res := range verified {
			if res.Dist <= r {
				within = append(within, res)
			}
		}
		if len(within) >= k || r >= t.dPlus {
			sort.Slice(within, func(i, j int) bool {
				if within[i].Dist != within[j].Dist {
					return within[i].Dist < within[j].Dist
				}
				return within[i].Object.ID() < within[j].Object.ID()
			})
			if len(within) > k {
				within = within[:k]
			}
			return within, nil
		}
		r *= 2
	}
}

// ResetStats zeroes I/O and distance counters and flushes caches.
func (t *Tree) ResetStats() {
	t.idxCache.Stats().Reset()
	t.idxCache.Flush()
	t.dataCache.Stats().Reset()
	t.dataCache.Flush()
	t.dist.Reset()
}

// TakeStats reads (page accesses, distance computations) since the reset.
func (t *Tree) TakeStats() (pa, compdists int64) {
	return t.idxCache.Stats().Accesses() + t.dataCache.Stats().Accesses(), t.dist.Count()
}

// StorageBytes returns the B+-tree plus data-file footprint (the data file
// carries the per-object distance vectors).
func (t *Tree) StorageBytes() int64 {
	return int64(t.idxCache.NumPages())*page.Size + int64(t.raf.PagesUsed())*page.Size
}

// record pairs an object with its pre-computed distance vector in the data
// file.
type record struct {
	vec []float64
	obj metric.Object
}

// ID implements metric.Object.
func (r *record) ID() uint64 { return r.obj.ID() }

// AppendBinary implements metric.Object: the distance vector then the
// object payload.
func (r *record) AppendBinary(dst []byte) []byte {
	for _, d := range r.vec {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(d))
	}
	return r.obj.AppendBinary(dst)
}

type recordCodec struct {
	dims  int
	inner metric.Codec
}

// Decode implements metric.Codec.
func (c recordCodec) Decode(id uint64, data []byte) (metric.Object, error) {
	need := 8 * c.dims
	if len(data) < need {
		return nil, fmt.Errorf("mindex: record too short: %d < %d", len(data), need)
	}
	vec := make([]float64, c.dims)
	for i := range vec {
		vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	obj, err := c.inner.Decode(id, data[need:])
	if err != nil {
		return nil, err
	}
	return &record{vec: vec, obj: obj}, nil
}
