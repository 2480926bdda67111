// Verification stage of the query algorithms (DESIGN.md §9). Every query runs
// on its caller's goroutine: the traversal admits candidates, and those that
// can be verified together — a range query's pending block, a kNN leaf, a
// kNN run of buffered-insert pops, a graph expansion — are resolved by
// resolveBlock: the block's raw records (copied from the RAF in one pass over
// their pages), the write buffer's tombstone filter on the record headers, the
// query's prepared kernel on each payload, and a decode of only what the
// kernel accepts or Lemma 2 proves. It is the only place on the query path
// where a record is decoded and a distance evaluated.
// Each caller then commits the verdicts in scan order under its own rule
// (fixed radius, prune on crossing the bound, terminate on crossing it), which
// is what keeps results and every counter identical to verifying the
// candidates one at a time.
package core

import (
	"fmt"
	"slices"

	"spbtree/internal/metric"
	"spbtree/internal/raf"
	"spbtree/internal/sfc"
)

// rangeBatchSize is how many surviving candidates a range traversal buffers
// per block — large enough for one copy pass to read a leaf's page-sharing
// records from one page fetch.
const rangeBatchSize = 16

// candidate is one entry a traversal admitted for verification: a base leaf
// entry at RAF offset val or, with obj set, a buffered insert whose object is
// already in memory. bound is what the filter proved about its distance: the
// MIND lower bound for kNN, and for a range candidate with
// proved set the Lemma 2 upper bound that includes it without a distance
// computation. A kNN leaf's entry carries its cell word instead, which its
// commit tests against the window of the live bound.
type candidate struct {
	bound  float64
	val    uint64
	cell   uint64
	obj    metric.Object
	proved bool
}

// candBlock is a query's current block of candidates and, after resolveBlock,
// their resolution, index-aligned with cands.
//
// A base candidate's object is borrowed: it is a decode slot that the next
// resolveBlock overwrites, good for evaluating the candidate and reading its
// ID. A caller that accepts the candidate — into a result list, the kNN heap,
// the graph search's node table — takes the object with keep. Only a
// candidate that is within the bound, proved by Lemma 2 or a buffered insert
// has an object; the others were rejected on their payload.
type candBlock struct {
	cands  []candidate
	objs   []metric.Object
	plens  []int  // RAF payload length of a base candidate, for EmitRecordRead
	tomb   []bool // base record superseded by the write buffer: not evaluated
	slot   []int  // a base candidate's index in readObjs; -1 for a buffered insert
	d      []float64
	within []bool

	// The raw records, header and payload, that fetchRecords copied from
	// the RAF: base candidate i's starts at raw[recAt[i]]. offsets and order
	// stage the copy in offset order. readObjs are the decode slots, kept
	// from block to block and query to query.
	raw      []byte
	recAt    []int
	offsets  []uint64
	order    []int
	readObjs []metric.Object
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
		b.recAt = make([]int, n)
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

// resolveBlock resolves sc.blk.cands. Each base candidate's raw record comes
// from fetchRecords; a record the write buffer supersedes is marked tomb by
// the ID in its header, without a decode. The rest — except candidates
// already proved — are evaluated against bound by the query's prepared
// kernel (metric.Prepare) on their payloads, so that within[i] ⇔ d(q,
// candidate) ≤ bound and d[i] is the exact distance when within[i],
// bit-identical to verifyDist; a buffered insert is evaluated on its object
// by the metric's DistanceAtMost, which has the same contract. A base
// candidate is decoded into the block's decode slots (see candBlock: the
// objects are borrowed) only when it is within or proved, unless the kernel
// decoded it to evaluate it. The evaluation runs on the unwrapped metric and
// fires no tracer event: the caller charges the distance counter and emits
// the record reads for what it commits.
//
// It returns how many leading candidates are resolved and how many of those
// were evaluated. resolved is the first candidate, in scan order, whose
// record could not be read or decoded, and err its error: a caller returns
// err if and only if its commit loop reaches index resolved, which is where
// verifying the candidates one at a time would have stopped; a loop that ends
// earlier (Lemma 3) never sees it.
func (t *Tree) resolveBlock(sc *queryScratch, q metric.Object, bound float64, qs *QueryStats) (resolved, probed int, err error) {
	b := &sc.blk
	b.grow(len(b.cands))
	st := qs.stageStart()
	defer qs.stageAdd(&qs.VerifyTime, st)
	resolved, err = t.fetchRecords(b)
	kern := sc.kernel(t, q)
	j := 0 // the next decode slot
	for i, c := range b.cands[:resolved] {
		b.tomb[i], b.slot[i], b.within[i], b.objs[i] = false, -1, false, c.obj
		if c.obj != nil {
			b.d[i], b.within[i] = metric.DistanceAtMost(t.dist.Unwrap(), q, c.obj, bound)
			probed++
			continue
		}
		rec := b.raw[b.recAt[i]:]
		id, payload := raf.RecordPayload(rec)
		b.plens[i], b.slot[i] = len(payload), j
		j++
		if b.tomb[i] = t.deltaShadowed(id); b.tomb[i] {
			continue
		}
		var obj metric.Object
		if !c.proved {
			d, within, kobj, kerr := kern.PayloadAtMost(q, id, payload, b.readObjs[b.slot[i]], bound)
			if kerr != nil {
				return i, probed, fmt.Errorf("core: decode record at %d: %w", c.val, kerr)
			}
			probed++
			b.d[i], b.within[i] = d, within
			if obj = kobj; obj != nil {
				b.readObjs[b.slot[i]] = obj
			}
			if !within {
				continue
			}
		}
		if obj == nil {
			// Not err: that holds the failed copy at resolved, if any.
			var derr error
			if obj, _, derr = t.raf.DecodeRecord(c.val, rec, b.readObjs[b.slot[i]]); derr != nil {
				return i, probed, derr
			}
			b.readObjs[b.slot[i]] = obj
		}
		b.objs[i] = obj
	}
	return resolved, probed, err
}

// fetchRecords copies the raw record of every base candidate of the block
// from the RAF into the block's buffer, in ascending offset order — a leaf's
// order, unless writes appended some of its records — so consecutive records
// that share a page are copied from one fetch. A record that fails to copy
// does not stop the others: the copy goes on after it, so every record is
// read or has failed on its own.
// fetchRecords returns the first candidate in scan order whose record
// failed, with its error, or len(cands).
func (t *Tree) fetchRecords(b *candBlock) (int, error) {
	failed, ferr := len(b.cands), error(nil)
	b.raw, b.offsets, b.order = b.raw[:0], b.offsets[:0], b.order[:0]
	for i, c := range b.cands {
		if c.obj == nil {
			b.order = append(b.order, i)
		}
	}
	// An insertion sort: a leaf's block is in offset order but for records
	// writes appended, and a graph expansion's block is a few dozen.
	for x, i := range b.order {
		off := b.cands[i].val
		b.offsets = append(b.offsets, off)
		y := x
		for ; y > 0 && b.offsets[y-1] > off; y-- {
			b.offsets[y], b.order[y] = b.offsets[y-1], b.order[y-1]
		}
		b.offsets[y], b.order[y] = off, i
	}
	for k := 0; k < len(b.order); {
		n, err := t.raf.CopyRecords(b.offsets[k:], func(i, n int) []byte {
			at := len(b.raw)
			b.raw = slices.Grow(b.raw, n)[:at+n]
			b.recAt[b.order[k+i]] = at
			return b.raw[at:]
		})
		if err == nil {
			break
		}
		if i := b.order[k+n]; i < failed {
			failed, ferr = i, err
		}
		k += n + 1
	}
	return failed, ferr
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
	c.bound, c.proved = s.t.lemma2Bound(s.sc.qvec, cell, s.r)
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
