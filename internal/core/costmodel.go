package core

import (
	"math"
	"math/rand"
	"sort"

	"spbtree/internal/bptree"
	"spbtree/internal/metric"
	"spbtree/internal/sfc"
)

// costModel implements the paper's Section 4.4 and 5.3 estimators. The union
// distance distribution F(r_1, …, r_|P|) of eq. (2) is represented by a
// reservoir sample of φ-vectors gathered while the tree is built ("can be
// statistically obtained during SPB-tree construction"); per-pivot marginal
// histograms supply F_{p_i} for the eND_k estimate of eq. (5). Node MBBs are
// snapshotted after construction so EPA's indicator sum over tree nodes
// (eq. 6) runs in memory without touching disk.
type costModel struct {
	nPivots int
	dPlus   float64
	rng     *rand.Rand

	seen  int
	vecs  [][]float64 // reservoir of raw φ-vectors
	hists []histogram // per-pivot distance distribution

	boxes [][2][]float64 // per-node MBB as raw distance intervals [lo, hi]
	dirty bool

	// precision is Definition 1's pivot-set quality, measured once at build
	// time over a pair sample; it calibrates the eND_k estimator.
	precision float64
	// pairDists is a sorted sample of true pairwise distances gathered at
	// build time: the overall distance distribution of the homogeneous cost
	// model (the paper's ref [41]) used for eND_k.
	pairDists []float64
	// cellWidth is the tree's δ, the threshold below which the
	// query-sensitive eND_k estimate is trusted outright.
	cellWidth float64
}

const histBins = 256

// costSample is the reservoir size for the union distance distribution the
// cost models sample.
const costSample = 1024

type histogram struct {
	bins  []int
	width float64
	total int
}

func (h *histogram) add(d float64) {
	i := int(d / h.width)
	if i >= len(h.bins) {
		i = len(h.bins) - 1
	}
	if i < 0 {
		i = 0
	}
	h.bins[i]++
	h.total++
}

// cdf returns F(r) = Pr{d ≤ r}.
func (h *histogram) cdf(r float64) float64 {
	if h.total == 0 {
		return 0
	}
	full := int(r / h.width)
	var cum int
	for i := 0; i < len(h.bins) && i <= full; i++ {
		cum += h.bins[i]
	}
	return float64(cum) / float64(h.total)
}

// quantileForCount returns the smallest r (bin upper edge) with
// total*F(r) ≥ want — the eND_k search of eq. (5).
func (h *histogram) quantileForCount(want float64, scale float64) float64 {
	var cum int
	for i := range h.bins {
		cum += h.bins[i]
		if scale*float64(cum)/float64(h.total) >= want {
			return float64(i+1) * h.width
		}
	}
	return float64(len(h.bins)) * h.width
}

func (cm *costModel) init(nPivots int, dPlus float64, seed int64) {
	cm.nPivots = nPivots
	cm.dPlus = dPlus
	cm.rng = rand.New(rand.NewSource(seed + 1))
	cm.hists = make([]histogram, nPivots)
	w := dPlus / histBins
	if w <= 0 {
		w = 1
	}
	for i := range cm.hists {
		cm.hists[i] = histogram{bins: make([]int, histBins), width: w}
	}
}

// observe folds one object's φ-vector into the distributions (reservoir
// sampling keeps the union sample bounded).
func (cm *costModel) observe(vec []float64, rng *rand.Rand) {
	for i, d := range vec {
		cm.hists[i].add(d)
	}
	cm.seen++
	if len(cm.vecs) < costSample {
		cm.vecs = append(cm.vecs, append([]float64(nil), vec...))
		return
	}
	if j := rng.Intn(cm.seen); j < costSample {
		cm.vecs[j] = append([]float64(nil), vec...)
	}
}

func (cm *costModel) observeInsert(vec []float64) { cm.observe(vec, cm.rng) }

// snapshot deep-copies the mutable distributions (the reservoir and the
// histograms, which observeInsert mutates in place) so compaction can
// serialize the model off-lock while mutators keep updating the original.
// Build-time immutable fields (pairDists, precision) are shared.
func (cm *costModel) snapshot() costModel {
	cp := *cm
	cp.rng = nil
	cp.boxes = nil
	cp.vecs = make([][]float64, len(cm.vecs))
	for i, v := range cm.vecs {
		cp.vecs[i] = append([]float64(nil), v...)
	}
	cp.hists = make([]histogram, len(cm.hists))
	for i, h := range cm.hists {
		cp.hists[i] = histogram{bins: append([]int(nil), h.bins...), width: h.width, total: h.total}
	}
	return cp
}

func (cm *costModel) markDirty() { cm.dirty = true }

// snapshotBoxes walks the tree once and keeps every node's MBB as raw
// distance intervals.
func (cm *costModel) snapshotBoxes(t *Tree) error {
	cm.boxes = cm.boxes[:0]
	lo := make(sfc.Point, cm.nPivots)
	hi := make(sfc.Point, cm.nPivots)
	err := t.bpt.Walk(func(depth int, ref bptree.NodeRef, n *bptree.Node) error {
		sfc.Unpack(ref.BoxLo, t.bits, lo)
		sfc.Unpack(ref.BoxHi, t.bits, hi)
		box := [2][]float64{make([]float64, cm.nPivots), make([]float64, cm.nPivots)}
		for i := range lo {
			box[0][i] = t.cellLower(lo[i])
			box[1][i] = t.cellUpper(hi[i])
		}
		cm.boxes = append(cm.boxes, box)
		return nil
	})
	if err != nil {
		return err
	}
	cm.dirty = false
	return nil
}

// estimateNDk returns eND_k, the estimated distance from q to its k-th
// nearest neighbor (eq. 5). Each sampled object's unknown distance to q is
// estimated from its mapped lower bound lb = max_i |v_i − q_i| calibrated by
// the pivot set's measured precision (Definition 1): by construction the
// mean of lb/d over pairs equals the precision, so lb/precision is an
// unbiased-in-the-mean point estimate of d. The k-th sample quantile, scaled
// from sample to population, is eND_k.
func (cm *costModel) estimateNDk(qvec []float64, k, population int, dPlus float64) float64 {
	if population == 0 {
		return dPlus
	}
	// The model follows the paper's protocol of querying with database
	// objects: q itself contributes the distance-0 first neighbor, so
	// ND_1 = 0 and the k-th neighbor overall is the (k-1)-th among the
	// remaining objects.
	if k <= 1 {
		return 0
	}
	k--
	population--
	if population < 1 {
		population = 1
	}
	// Homogeneous component: the k/|O| quantile of the overall pairwise
	// distance distribution. The pair sample is sized proportionally to the
	// dataset at build time (see Build) so this quantile stays resolvable
	// down to small k.
	var global float64
	if len(cm.pairDists) > 0 {
		global = quantileAtRank(cm.pairDists, k, population)
	}
	// Query-sensitive component: the same quantile over the sampled mapped
	// lower bounds, calibrated by the pivot set's precision. It is biased
	// low (extreme-value selection on lower bounds) so it only ever raises
	// the homogeneous estimate.
	if len(cm.vecs) > 0 {
		prec := cm.precision
		if prec < 0.05 {
			prec = 0.05
		}
		ests := make([]float64, len(cm.vecs))
		for j, v := range cm.vecs {
			var lb float64
			for i, d := range v {
				if diff := math.Abs(d - qvec[i]); diff > lb {
					lb = diff
				}
			}
			ests[j] = lb / prec
		}
		sort.Float64s(ests)
		if qs := quantileAtRank(ests, k, population); qs > global {
			global = qs
		}
	}
	if global > dPlus {
		global = dPlus
	}
	return global
}

// quantileAtRank returns the sorted sample's value at the rank matching the
// k-th smallest of a population of the given size.
func quantileAtRank(sorted []float64, k, population int) float64 {
	rank := int(math.Ceil(float64(k) * float64(len(sorted)) / float64(population)))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// prInRegion estimates Pr(φ(o) ∈ RR(q, r)) — eq. (4) — as the sample
// fraction of φ-vectors within the raw-space box [qvec−r, qvec+r].
func (cm *costModel) prInRegion(qvec []float64, r float64) float64 {
	if len(cm.vecs) == 0 {
		return 0
	}
	in := 0
	for _, v := range cm.vecs {
		ok := true
		for i, d := range v {
			if d < qvec[i]-r || d > qvec[i]+r {
				ok = false
				break
			}
		}
		if ok {
			in++
		}
	}
	return float64(in) / float64(len(cm.vecs))
}

// CostEstimate carries the model's predictions for one query.
type CostEstimate struct {
	// EDC is the estimated number of distance computations (eq. 3 / 7).
	EDC float64
	// EPA is the estimated number of page accesses (eq. 6 / 8).
	EPA float64
	// Radius is the search radius used: r for range queries, eND_k for kNN.
	Radius float64
}

// ensureCostBoxes refreshes the cost model's MBB snapshot if writes have
// dirtied it, under the write lock — the snapshot mutates the model, so it
// may not run concurrently with queries that read it. Every estimation entry
// point calls this before taking the read lock.
func (t *Tree) ensureCostBoxes() error {
	t.mu.RLock()
	dirty := t.cm.dirty
	closed := t.closed
	t.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if !dirty {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	if !t.cm.dirty {
		return nil
	}
	return t.cm.snapshotBoxes(t)
}

// EstimateRange predicts the cost of RangeQuery(q, r) per eqs. (3), (4) and
// (6). The φ(q) computation uses the unwrapped metric so estimation does not
// disturb the compdists counter. If writes have dirtied the MBB snapshot it
// is refreshed first (under the write lock).
func (t *Tree) EstimateRange(q metric.Object, r float64) (CostEstimate, error) {
	if err := t.ensureCostBoxes(); err != nil {
		return CostEstimate{}, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return CostEstimate{}, ErrClosed
	}
	return t.estimateAt(t.quietPhi(q), r), nil
}

// EstimateKNN predicts the cost of KNN(q, k): eND_k is estimated per eq. (5)
// with a query-sensitive F_q in the spirit of Ciaccia-Nanni [40] — each
// sampled object's distance to q is approximated by the midpoint of its
// triangle-inequality interval [max_i |v_i−q_i|, min_i (v_i+q_i)] — and then
// the range estimators apply at radius eND_k (Lemma 4). If writes have
// dirtied the MBB snapshot it is refreshed first (under the write lock).
func (t *Tree) EstimateKNN(q metric.Object, k int) (CostEstimate, error) {
	if err := t.ensureCostBoxes(); err != nil {
		return CostEstimate{}, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return CostEstimate{}, ErrClosed
	}
	qvec := t.quietPhi(q)
	return t.estimateAt(qvec, t.cm.estimateNDk(qvec, k, t.count, t.dPlus)), nil
}

// estimateAt is the range estimate of eqs. (3), (4) and (6) at radius r for
// an already-mapped query. Callers hold the read lock and guarantee the MBB
// snapshot is clean.
func (t *Tree) estimateAt(qvec []float64, r float64) CostEstimate {
	pr := t.cm.prInRegion(qvec, r)
	edc := float64(len(t.pivots)) + float64(t.count)*pr
	epa := t.cm.pageEstimate(qvec, r, edc, t.raf.ObjectsPerPage())
	return CostEstimate{EDC: edc, EPA: epa, Radius: r}
}

// EstimateJoin predicts the cost of Join(tq, to, eps) per eqs. (7) and (8):
// EDC sums, over tq's sampled φ-vectors scaled to |Q|, the expected number
// of O-objects inside each range region; EPA is one sequential pass over
// both trees' leaf and RAF pages.
func EstimateJoin(tq, to *Tree, eps float64) (CostEstimate, error) {
	if len(tq.cm.vecs) == 0 || to.count == 0 {
		return CostEstimate{Radius: eps}, nil
	}
	var sum float64
	for _, qvec := range tq.cm.vecs {
		sum += float64(to.count) * to.cm.prInRegion(qvec, eps)
	}
	edc := sum / float64(len(tq.cm.vecs)) * float64(tq.count)
	epa := float64(tq.bpt.NumLeaves()) + float64(to.bpt.NumLeaves())
	if f := tq.raf.ObjectsPerPage(); f > 0 {
		epa += float64(tq.count) / f
	}
	if tq != to {
		if f := to.raf.ObjectsPerPage(); f > 0 {
			epa += float64(to.count) / f
		}
	}
	return CostEstimate{EDC: edc, EPA: epa, Radius: eps}, nil
}

// pageEstimate implements eq. (6): the MBB-intersection indicator summed
// over all tree nodes plus EDC/f RAF pages.
func (cm *costModel) pageEstimate(qvec []float64, r, edc, f float64) float64 {
	var ios float64
	for _, box := range cm.boxes {
		hit := true
		for i := range qvec {
			if box[1][i] < qvec[i]-r || box[0][i] > qvec[i]+r {
				hit = false
				break
			}
		}
		if hit {
			ios++
		}
	}
	if f > 0 {
		ios += edc / f
	}
	return math.Ceil(ios)
}

// quietPhi computes φ(q) without counting the distance computations, so
// cost estimation never perturbs measurements.
func (t *Tree) quietPhi(q metric.Object) []float64 {
	vec := make([]float64, len(t.pivots))
	raw := t.dist.Unwrap()
	for i, p := range t.pivots {
		vec[i] = raw.Distance(q, p)
	}
	return vec
}
