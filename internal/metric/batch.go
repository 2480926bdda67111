package metric

// BatchDistanceFunc is an optional extension of DistanceFunc for evaluating
// one query against a block of candidates — the shape raf.ReadBatch hands the
// verification stage when a leaf's candidates land together (DESIGN.md §13).
// A batch kernel hoists the per-query work out of the per-candidate loop:
// the query's coordinate slice and the powered threshold budget for the Lp
// norms, the interned Myers Peq bitmaps for edit distance.
//
// The contract is the BoundedDistanceFunc contract, element-wise and bit for
// bit: for every i, (d[i], within[i]) must equal what DistanceAtMost(q,
// objs[i], t) returns — within[i] ⇔ d(q, objs[i]) ≤ t exactly, and d[i] is
// then bit-identical to Distance(q, objs[i]). Batch evaluation is therefore
// invisible to query semantics and counters; only wall time changes. The
// cross-kernel equivalence suites (core's batch tests, FuzzBatchDistance)
// enforce this for every kernel and object kind.
type BatchDistanceFunc interface {
	DistanceFunc
	// BatchDistanceAtMost evaluates d(q, objs[i]) against the threshold t
	// for every candidate, writing the (d[i], within[i]) pairs into the
	// caller's slices. len(d) and len(within) must equal len(objs). Any t is
	// allowed: t = +Inf degenerates to exact batch evaluation, t < 0 reports
	// within[i] == false for every candidate.
	BatchDistanceAtMost(q Object, objs []Object, t float64, d []float64, within []bool)
}

// BatchDistanceAtMost evaluates fn against a block of candidates, using the
// batch kernel when fn implements BatchDistanceFunc and a scalar
// DistanceAtMost loop otherwise. The fallback preserves the element-wise
// contract exactly, so callers can treat every DistanceFunc as batchable;
// only the hoisting savings require a real kernel.
func BatchDistanceAtMost(fn DistanceFunc, q Object, objs []Object, t float64, d []float64, within []bool) {
	if bf, ok := fn.(BatchDistanceFunc); ok {
		bf.BatchDistanceAtMost(q, objs, t, d, within)
		return
	}
	for i, o := range objs {
		d[i], within[i] = DistanceAtMost(fn, q, o, t)
	}
}

// BatchDistanceAtMost implements BatchDistanceFunc for the Minkowski norms:
// the query's coordinate slice is type-asserted once and the powered abandon
// budget t^p computed once; each candidate then runs the same shared kernel
// the scalar path uses, so every (d[i], within[i]) pair is bit-identical to
// DistanceAtMost(q, objs[i], t) by construction.
func (l LpNorm) BatchDistanceAtMost(q Object, objs []Object, t float64, d []float64, within []bool) {
	if _, ok := l.intP(); !ok {
		for i, o := range objs {
			d[i], within[i] = l.DistanceAtMost(q, o, t)
		}
		return
	}
	if t < 0 {
		for i := range objs {
			d[i], within[i] = 0, false
		}
		return
	}
	budget := l.budget(t)
	switch vq := q.(type) {
	case *Vector:
		qc := vq.Coords
		for i, o := range objs {
			vo, ok := o.(*Vector)
			if !ok {
				panic(badType("LpNorm", "*Vector", o))
			}
			l.checkDims(len(qc), len(vo.Coords))
			s, w := l.powSum64AtMost(qc, vo.Coords, budget)
			if !w {
				d[i], within[i] = s, false
				continue
			}
			dist := l.root(s)
			d[i], within[i] = dist, dist <= t
		}
	case *Vector32:
		qc := vq.Coords
		for i, o := range objs {
			vo, ok := o.(*Vector32)
			if !ok {
				panic(badType("LpNorm", "*Vector32", o))
			}
			l.checkDims(len(qc), len(vo.Coords))
			s, w := l.powSum32AtMost(qc, vo.Coords, budget)
			if !w {
				d[i], within[i] = s, false
				continue
			}
			dist := l.root(s)
			d[i], within[i] = dist, dist <= t
		}
	default:
		panic(badType("LpNorm", "*Vector or *Vector32", q))
	}
}

// BatchDistanceAtMost implements BatchDistanceFunc for the Chebyshev
// distance, hoisting the query's type assertion out of the candidate loop.
func (l LInf) BatchDistanceAtMost(q Object, objs []Object, t float64, d []float64, within []bool) {
	switch vq := q.(type) {
	case *Vector:
		qc := vq.Coords
		for i, o := range objs {
			vo, ok := o.(*Vector)
			if !ok {
				panic(badType("LInf", "*Vector", o))
			}
			d[i], within[i] = maxAbs64AtMost(qc, vo.Coords, t)
		}
	case *Vector32:
		qc := vq.Coords
		for i, o := range objs {
			vo, ok := o.(*Vector32)
			if !ok {
				panic(badType("LInf", "*Vector32", o))
			}
			d[i], within[i] = maxAbs32AtMost(qc, vo.Coords, t)
		}
	default:
		panic(badType("LInf", "*Vector or *Vector32", q))
	}
}

// BatchDistanceAtMost implements BatchDistanceFunc for the Hamming distance,
// hoisting the query's bit slice out of the candidate loop.
func (h Hamming) BatchDistanceAtMost(q Object, objs []Object, t float64, d []float64, within []bool) {
	bq, ok := q.(*BitString)
	if !ok {
		panic(badType("Hamming", "*BitString", q))
	}
	for i, o := range objs {
		bo, ok := o.(*BitString)
		if !ok {
			panic(badType("Hamming", "*BitString", o))
		}
		d[i], within[i] = hammingAtMost(bq.Bits, bo.Bits, t)
	}
}

// PreparedQuery is a batch kernel bound to one query object: whatever depends
// only on the query — for edit distance the Myers equality bitmaps, the
// dominant per-block cost for dictionary-length strings — is built once by
// Prepare and reused for every candidate block that query verifies.
// BatchAtMost has exactly BatchDistanceFunc.BatchDistanceAtMost's contract
// for that query. A PreparedQuery is immutable once built.
type PreparedQuery interface {
	BatchAtMost(objs []Object, t float64, d []float64, within []bool)
}

// Prepare binds fn's batch kernel to q. Kernels with per-query state build it
// here; the vector norms and Hamming have none worth keeping (one type
// assertion per block — their powered budget depends on the moving
// threshold), so they, and metrics without a batch kernel, are bound as is.
func Prepare(fn DistanceFunc, q Object) PreparedQuery {
	if p, ok := fn.(interface{ Prepare(q Object) PreparedQuery }); ok {
		return p.Prepare(q)
	}
	return boundQuery{fn, q}
}

// boundQuery is Prepare's stateless binding: BatchDistanceAtMost on (fn, q).
type boundQuery struct {
	fn DistanceFunc
	q  Object
}

func (b boundQuery) BatchAtMost(objs []Object, t float64, d []float64, within []bool) {
	BatchDistanceAtMost(b.fn, b.q, objs, t, d, within)
}

// Prepare builds the query's Myers equality bitmaps (single-word or interned
// multi-block) once; every exact evaluation in the decision tree then replays
// the prebuilt kernel. The narrow-band case still runs Ukkonen's banded DP
// per pair (a band has no hoistable pattern state).
func (e EditDistance) Prepare(q Object) PreparedQuery {
	sq, ok := q.(*Str)
	if !ok {
		panic(badType("EditDistance", "*Str", q))
	}
	return newEditQuery(sq.S)
}

// BatchDistanceAtMost implements BatchDistanceFunc for edit distance through
// a one-block PreparedQuery.
func (e EditDistance) BatchDistanceAtMost(q Object, objs []Object, t float64, d []float64, within []bool) {
	e.Prepare(q).BatchAtMost(objs, t, d, within)
}

// BatchAtMost implements PreparedQuery. Each (d[i], within[i]) pair equals
// the scalar DistanceAtMost result: both sides compute the same exact integer
// distance and compare it against the same ⌊t⌋.
func (eq *editQuery) BatchAtMost(objs []Object, t float64, d []float64, within []bool) {
	for i, o := range objs {
		so, ok := o.(*Str)
		if !ok {
			panic(badType("EditDistance", "*Str", o))
		}
		di, w := eq.atMost(so.S, t)
		d[i], within[i] = float64(di), w
	}
}

// editQuery is a query string with its Myers equality bitmaps interned for
// batch evaluation: p64 for patterns within one machine word, the
// slot/peq/w trio for longer ones (see myers.go).
type editQuery struct {
	q    string
	p64  [256]uint64
	slot [256]uint16
	peq  []uint64
	w    int
}

// newEditQuery builds the interned bitmaps for q once.
func newEditQuery(q string) *editQuery {
	e := &editQuery{q: q}
	if len(q) == 0 {
		return e
	}
	if len(q) <= 64 {
		for i := 0; i < len(q); i++ {
			e.p64[q[i]] |= 1 << uint(i)
		}
		return e
	}
	w := (len(q) + 63) / 64
	e.w = w
	distinct := 0
	for i := 0; i < len(q); i++ {
		c := q[i]
		if e.slot[c] == 0 {
			distinct++
			e.slot[c] = uint16(distinct)
			e.peq = append(e.peq, make([]uint64, w)...)
		}
		e.peq[(int(e.slot[c])-1)*w+i/64] |= 1 << uint(i%64)
	}
	return e
}

// exact returns the exact Levenshtein distance to text through the prebuilt
// kernel. Edit distance is symmetric, so running Myers with the query as the
// pattern (rather than the shorter string, as the scalar dispatcher picks)
// returns the identical integer.
func (e *editQuery) exact(text string) int {
	switch {
	case e.q == text:
		return 0
	case len(e.q) == 0:
		return len(text)
	case len(text) == 0:
		return len(e.q)
	case len(e.q) <= 64:
		return myersRun64(&e.p64, len(e.q), text)
	}
	return myersRunBlock(&e.slot, e.peq, e.w, len(e.q), text)
}

// atMost evaluates the bounded contract for one candidate, mirroring
// boundedEditDistance's screening branches; the branches needing an exact
// distance replay the prebuilt kernel, and the narrow-band branch defers to
// the banded DP (whose screens are cheap to repeat).
func (e *editQuery) atMost(text string, t float64) (int, bool) {
	if t < 0 {
		return 0, false
	}
	if e.q == text {
		return 0, true
	}
	a, b := stripCommonAffixes(e.q, text)
	if len(a) > len(b) {
		a, b = b, a
	}
	m, n := len(a), len(b)
	if t >= float64(n) {
		return e.exact(text), true
	}
	k := int(t)
	if n-m > k {
		return n - m, false
	}
	if m == 0 {
		return n, true // n = |len(a)-len(b)| ≤ k here
	}
	if 2*k+1 >= m {
		d := e.exact(text)
		return d, d <= k
	}
	return boundedEditDistance(e.q, text, t)
}

var (
	_ BatchDistanceFunc = LpNorm{}
	_ BatchDistanceFunc = LInf{}
	_ BatchDistanceFunc = Hamming{}
	_ BatchDistanceFunc = EditDistance{}
)
