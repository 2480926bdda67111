package metric

import "unsafe"

// PreparedQuery is a distance kernel bound to one query object and to the
// codec of its candidates: whatever depends only on the query — for edit
// distance the Myers equality bitmaps and the byte histogram of the bag
// screen, for the Minkowski norms the powered budget of the last threshold —
// is built once by Prepare and reused for every candidate the query
// verifies. It evaluates a candidate in its stored form, the payload its
// AppendBinary wrote, as the random access file keeps it, so a candidate the
// kernel rejects need not be decoded at all (DESIGN.md §13.1). It keeps no
// reference to the query object: the caller passes q to every evaluation and
// may hold on to the kernel after its query, for Prepare to re-initialise for
// the next. A PreparedQuery is used by one goroutine at a time.
type PreparedQuery interface {
	// PayloadAtMost evaluates d(q, o) against t, q being the object the
	// kernel was prepared for and o the object with ID id whose payload is
	// payload: (d, within) is what DistanceAtMost(fn, q, o, t) returns, bit
	// for bit, including the unspecified d when within is false. A kernel
	// that reads the payload in place (edit distance, and every metric over
	// a fixed-width codec) returns a nil obj, or the codec's error for a
	// payload of the wrong size. The generic binding decodes the payload
	// into slot — a decode slot, as in DecodeInto — and returns the decoded
	// object, which the caller then owns, or the codec's error. The payload
	// is not retained.
	PayloadAtMost(q Object, id uint64, payload []byte, slot Object, t float64) (d float64, within bool, obj Object, err error)
}

// Prepare prepares fn's kernel for q and candidates that codec decodes. A
// kernel that reads the payload in place serves edit distance over StrCodec
// payloads, which are the string's bytes (the prepared Myers kernel),
// Hamming over BitStringCodec payloads and, on a host that can read a vector
// payload as its coordinate array (vectorsInPlace), an integer-order LpNorm
// and LInf over VectorCodec and Vector32Codec payloads (see fixedQuery).
// Every other metric — Jaccard, TrigramAngular, a non-integer order, vectors
// on any other host — is bound as is and evaluates the decoded candidate
// with DistanceAtMost. prev is a kernel
// an earlier Prepare returned, whose query is done, or nil: an in-place
// kernel of the same kind is re-initialised in place rather than allocated
// again, so a caller that keeps its kernel from query to query prepares each
// query for free.
func Prepare(fn DistanceFunc, codec Codec, q Object, prev PreparedQuery) PreparedQuery {
	if _, ok := fn.(EditDistance); ok {
		if _, raw := codec.(StrCodec); raw {
			sq, ok := q.(*Str)
			if !ok {
				panic(badType("EditDistance", "*Str", q))
			}
			eq, _ := prev.(*editQuery)
			if eq == nil {
				eq = new(editQuery)
			}
			eq.prepare(sq.S)
			return eq
		}
	}
	if k := prepareFixed(fn, codec, q, prev); k != nil {
		return k
	}
	return boundQuery{fn, codec}
}

// boundQuery is Prepare's generic binding: decode, then DistanceAtMost.
type boundQuery struct {
	fn    DistanceFunc
	codec Codec
}

func (b boundQuery) PayloadAtMost(q Object, id uint64, payload []byte, slot Object, t float64) (float64, bool, Object, error) {
	o, err := DecodeInto(b.codec, slot, id, payload)
	if err != nil {
		return 0, false, nil, err
	}
	d, within := DistanceAtMost(b.fn, q, o, t)
	return d, within, o, nil
}

// PayloadAtMost implements PreparedQuery on the payload bytes in place: a
// StrCodec payload is the string itself.
func (e *editQuery) PayloadAtMost(_ Object, _ uint64, payload []byte, _ Object, t float64) (float64, bool, Object, error) {
	d, within := e.atMost(unsafe.String(unsafe.SliceData(payload), len(payload)), t)
	return float64(d), within, nil, nil
}

// editQuery is a query string with its Myers equality bitmaps interned — p64
// for patterns within one machine word, slot, w and the bitmaps for longer
// ones (see myers.go) — and its byte histogram, for the bag screen.
type editQuery struct {
	q    string
	own  []byte // the copy of the query's bytes q points into, once prepared
	hist [256]int
	p64  [256]uint64
	slot [256]uint16
	w    int

	// The bitmaps of a pattern over 64 bytes: in peqBuf when they fit (8
	// blocks of 16 distinct bytes), else in peq.
	peqBuf [myersBlockStackWords]uint64
	peq    []uint64
}

// prepare re-initialises e in place for q, on a copy of q's bytes that it
// owns, so that a kernel kept after its query pins none of it.
func (e *editQuery) prepare(q string) {
	e.reset()
	e.own = append(e.own[:0], q...)
	e.init(unsafe.String(unsafe.SliceData(e.own), len(e.own)))
}

// reset undoes init: it clears the entries of the histogram and the bitmaps
// that e's query set, so that init can run again.
func (e *editQuery) reset() {
	for i := 0; i < len(e.q); i++ {
		c := e.q[i]
		e.hist[c], e.p64[c], e.slot[c] = 0, 0, 0
	}
	if e.w > 0 {
		clear(e.peqBuf[:])
	}
	e.q, e.w, e.peq = "", 0, nil
}

// init builds the histogram and the interned bitmaps for q; e must be zero or
// reset.
func (e *editQuery) init(q string) {
	e.q = q
	for i := 0; i < len(q); i++ {
		e.hist[q[i]]++
	}
	if len(q) == 0 {
		return
	}
	if len(q) <= 64 {
		for i := 0; i < len(q); i++ {
			e.p64[q[i]] |= 1 << uint(i)
		}
		return
	}
	w := (len(q) + 63) / 64
	e.w = w
	distinct := 0
	for i := 0; i < len(q); i++ {
		if c := q[i]; e.slot[c] == 0 {
			distinct++
			e.slot[c] = uint16(distinct)
		}
	}
	peq := e.peqBuf[:]
	if distinct*w > len(peq) {
		e.peq = make([]uint64, distinct*w)
		peq = e.peq
	}
	for i := 0; i < len(q); i++ {
		peq[(int(e.slot[q[i]])-1)*w+i/64] |= 1 << uint(i%64)
	}
}

// bitmaps returns the interned equality bitmaps of a pattern over 64 bytes.
// They are not kept as a slice of peqBuf: a pointer into itself would move
// a stack-allocated editQuery to the heap.
func (e *editQuery) bitmaps() []uint64 {
	if e.peq != nil {
		return e.peq
	}
	return e.peqBuf[:]
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
	return myersRunBlock(&e.slot, e.bitmaps(), e.w, len(e.q), text)
}

// atMost evaluates the bounded contract for one candidate, taking
// boundedEditDistance's branches in its order: the length screen, the bag
// screen on the query's histogram (the whole strings have the bag distance
// of their affix-stripped remainders), then the prebuilt kernel where the
// distance is needed exactly or the banded DP on the stripped strings.
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
	if bag := bagFrom(&e.hist, len(e.q), text); bag > k {
		return bag, false
	}
	if 2*k+1 >= m {
		d := e.exact(text)
		return d, d <= k
	}
	return bandedEditDistance(a, b, k)
}
