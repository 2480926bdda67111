// Verification stage of the query algorithms (DESIGN.md §9). Every query runs
// on its caller's goroutine: the traversal admits candidates, and those that
// can be verified together — a range query's pending block, a greedy kNN
// leaf, a best-first run of entry pops, an iterator run, a graph expansion —
// are resolved by resolveBlock: one coalesced RAF read, the write buffer's
// tombstone filter, one call of the query's prepared kernel. It is the only
// place on the query path where a record is read and a distance evaluated.
// Each caller then commits the verdicts in scan order under its own rule
// (fixed radius, prune on crossing the bound, terminate on crossing it), which
// is what keeps results and every counter identical to verifying the
// candidates one at a time.
package core

import (
	"spbtree/internal/metric"
	"spbtree/internal/sfc"
)

// rangeBatchSize is how many surviving candidates a range traversal buffers
// per block — large enough for ReadBatch to coalesce a leaf's page-sharing
// records.
const rangeBatchSize = 16

// candidate is one entry a traversal admitted for verification: a base leaf
// entry at RAF offset val or, with obj set, a buffered insert whose object is
// already in memory. bound is what the filter proved about its distance: the
// MIND lower bound for kNN and the iterator, and for a range candidate with
// proved set the Lemma 2 upper bound that includes it without a distance
// computation.
type candidate struct {
	bound  float64
	val    uint64
	obj    metric.Object
	proved bool
}

// candBlock is a query's current block of candidates and, after resolveBlock,
// their resolution, index-aligned with cands.
//
// A base candidate's object is borrowed: it is a decode slot that the next
// resolveBlock overwrites, good for evaluating the candidate and reading its
// ID. A caller that accepts the candidate — into a result list, the kNN heap,
// the graph search's node table — takes the object with keep.
type candBlock struct {
	cands  []candidate
	objs   []metric.Object
	plens  []int  // RAF payload length of a base candidate, for EmitRecordRead
	tomb   []bool // base record superseded by the write buffer: not evaluated
	slot   []int  // a base candidate's index in readObjs; -1 for a buffered insert
	d      []float64
	within []bool

	// Compact staging for the coalesced read and the kernel call. readObjs
	// are the decode slots, kept from block to block and query to query.
	offsets   []uint64
	readObjs  []metric.Object
	readPlens []int
	probeIdx  []int
	probeObjs []metric.Object
	pd        []float64
	pw        []bool
}

// grow sizes the per-candidate slices for n candidates; the decode slots
// filled so far carry over.
func (b *candBlock) grow(n int) {
	if len(b.readObjs) < n {
		b.readObjs = append(b.readObjs, make([]metric.Object, n-len(b.readObjs))...)
	}
	if cap(b.objs) < n {
		b.objs = make([]metric.Object, n)
		b.plens = make([]int, n)
		b.tomb = make([]bool, n)
		b.slot = make([]int, n)
		b.d = make([]float64, n)
		b.within = make([]bool, n)
		b.offsets = make([]uint64, n)
		b.readPlens = make([]int, n)
		b.probeIdx = make([]int, n)
		b.probeObjs = make([]metric.Object, n)
		b.pd = make([]float64, n)
		b.pw = make([]bool, n)
	}
}

// keep returns candidate i's object for the caller to hold on to. A borrowed
// slot object is handed over as it is — no copy — and its slot left empty, so
// the next block decodes a new object there: the read path allocates per
// accepted candidate, not per verified one.
func (b *candBlock) keep(i int) metric.Object {
	if j := b.slot[i]; j >= 0 {
		b.readObjs[j] = nil
	}
	return b.objs[i]
}

// resolveBlock resolves sc.blk.cands: the base candidates' records come from
// one coalesced RAF read into the block's decode slots (see candBlock: the
// objects are borrowed), buffered inserts bring their object, records the
// write buffer supersedes are marked tomb, and the rest — except candidates
// already proved — are evaluated against bound by one call of the query's
// prepared kernel (metric.Prepare: the metric's own, or the generic binding
// of one without), so that within[i] ⇔ d(q, objs[i]) ≤ bound and d[i] is the
// exact distance when within[i], bit-identical to verifyDist. The evaluation
// runs on the unwrapped metric and fires no tracer event: the caller charges
// the distance counter and emits the record reads for what it commits.
//
// It returns how many leading candidates are resolved and how many of those
// the kernel evaluated. When the coalesced read fails, the records are read
// again one at a time in scan order — the coalesced read visits them in
// offset order, so its failing record need not be the scan's first — up to
// the first that fails: resolved is that candidate's index and err its error.
// A caller returns err if and only if its commit loop reaches index resolved,
// which is where verifying the candidates one at a time would have stopped; a
// loop that ends earlier (Lemma 3, an exhausted budget) never sees it.
func (t *Tree) resolveBlock(sc *queryScratch, q metric.Object, bound float64, qs *QueryStats) (resolved, probed int, err error) {
	b := &sc.blk
	b.grow(len(b.cands))
	st := qs.stageStart()
	m := 0
	for _, c := range b.cands {
		if c.obj == nil {
			b.offsets[m] = c.val
			m++
		}
	}
	if _, rerr := t.raf.ReadBatch(b.offsets[:m], b.readObjs[:m], b.readPlens[:m]); rerr != nil {
		for j := 0; j < m; j++ {
			if _, err = t.raf.ReadBatch(b.offsets[j:j+1], b.readObjs[j:j+1], b.readPlens[j:j+1]); err != nil {
				m = j // base records read
				break
			}
		}
	}
	probeIdx, probeObjs := b.probeIdx[:0], b.probeObjs[:0]
	resolved = len(b.cands)
	j := 0
	for i, c := range b.cands {
		obj := c.obj
		b.tomb[i], b.slot[i] = false, -1
		if obj == nil {
			if j == m {
				resolved = i // the record that failed
				break
			}
			obj, b.plens[i], b.slot[i] = b.readObjs[j], b.readPlens[j], j
			j++
			b.tomb[i] = t.deltaShadowed(obj.ID())
		}
		b.objs[i] = obj
		if !b.tomb[i] && !c.proved {
			probeIdx = append(probeIdx, i)
			probeObjs = append(probeObjs, obj)
		}
	}
	probed = len(probeObjs)
	if probed > 0 {
		pd, pw := b.pd[:probed], b.pw[:probed]
		sc.kernel(t, q).BatchAtMost(probeObjs, bound, pd, pw)
		for j, i := range probeIdx {
			b.d[i], b.within[i] = pd[j], pw[j]
		}
	}
	qs.stageAdd(&qs.VerifyTime, st)
	return resolved, probed, err
}

// rangeSerial is the verification tail of the paper's VerifyRQ for the
// entries that survived Algorithm 1's traversal-side pruning: the tombstone
// filter, Lemma 2 inclusion, then fetch + distance. Candidates are buffered
// into blocks and resolved together (DESIGN.md §13); the radius is a fixed
// bound, so a block's verdicts are exactly the per-candidate decisions.
type rangeSerial struct {
	t       *Tree
	q       metric.Object
	r       float64
	qs      *QueryStats
	results []Result
	sc      *queryScratch
}

// add takes one surviving leaf entry; cell is its decoded SFC cell, owned by
// the caller and valid only during the call.
func (s *rangeSerial) add(val uint64, cell sfc.Point) error {
	c := candidate{val: val}
	if !s.t.noLemma2 {
		c.bound, c.proved = s.t.lemma2Bound(s.sc.qvec, cell, s.r)
	}
	b := &s.sc.blk
	b.cands = append(b.cands, c)
	if len(b.cands) >= rangeBatchSize {
		return s.flush()
	}
	return nil
}

// flush verifies the pending block. A range scan reaches every candidate, so
// a read error is returned once the candidates before it are committed.
func (s *rangeSerial) flush() error {
	t, qs, b := s.t, s.qs, &s.sc.blk
	if len(b.cands) == 0 {
		return nil
	}
	resolved, probed, err := t.resolveBlock(s.sc, s.q, s.r, qs)
	cands := b.cands
	b.cands = cands[:0]
	t.dist.Add(int64(probed))
	qs.BatchedCandidates += int64(probed)
	for i, c := range cands[:resolved] {
		t.raf.EmitRecordRead(c.val, b.plens[i])
		switch {
		case b.tomb[i]:
			// Superseded by the write buffer (tombstone or newer version):
			// the delta pass reports the live one, if any. The page read
			// already happened — what the skip saves is the distance work.
			qs.TombstonesSkipped++
		case c.proved:
			qs.Lemma2Included++
			s.results = append(s.results, Result{Object: b.keep(i), Dist: c.bound, Exact: false})
		default:
			obj := b.objs[i]
			if b.within[i] {
				obj = b.keep(i) // an answer
			}
			s.verified(obj, b.d[i], b.within[i])
		}
	}
	return err
}

// verified counts one distance evaluation against the radius.
func (s *rangeSerial) verified(obj metric.Object, d float64, within bool) {
	qs := s.qs
	qs.Verified++
	qs.Compdists++
	if within {
		s.results = append(s.results, Result{Object: obj, Dist: d, Exact: true})
	} else {
		qs.Discarded++
		if s.t.bounded {
			qs.Abandoned++
		}
	}
}
