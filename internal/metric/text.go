package metric

import (
	"fmt"
	"unsafe"
)

// Str is a string object, used for the Words workload under edit distance.
type Str struct {
	Id uint64
	S  string

	// buf is the storage of S in an object StrCodec decoded, kept so that a
	// DecodeInto can overwrite it; nil in every other Str.
	buf []byte
}

// NewStr returns a string object.
func NewStr(id uint64, s string) *Str { return &Str{Id: id, S: s} }

// ID returns the object identifier.
func (s *Str) ID() uint64 { return s.Id }

// AppendBinary appends the raw string bytes.
func (s *Str) AppendBinary(dst []byte) []byte { return append(dst, s.S...) }

// String implements fmt.Stringer.
func (s *Str) String() string { return fmt.Sprintf("Str(%d, %q)", s.Id, s.S) }

// StrCodec decodes Str payloads.
type StrCodec struct{}

// Decode implements Codec.
func (c StrCodec) Decode(id uint64, data []byte) (Object, error) {
	return c.DecodeInto(nil, id, data)
}

// DecodeInto implements SlotCodec, reusing a *Str slot and the bytes behind
// its string. A string must never change while it exists: the slot's old S is
// dropped before its bytes are overwritten, and by the SlotCodec contract
// nobody else still holds it. Only bytes the codec allocated are ever written
// — a Str from anywhere else has no buf and gets one. A new buffer holds at
// least minStrBuf bytes: a slot refilled after its object was kept then
// decodes the longer words of the blocks that follow without regrowing.
func (StrCodec) DecodeInto(slot Object, id uint64, data []byte) (Object, error) {
	s, ok := slot.(*Str)
	if !ok {
		s = new(Str)
	}
	s.Id, s.S = id, ""
	if cap(s.buf) < len(data) {
		s.buf = make([]byte, 0, max(len(data), minStrBuf))
	}
	s.buf = append(s.buf[:0], data...)
	s.S = unsafe.String(unsafe.SliceData(s.buf), len(s.buf))
	return s, nil
}

// minStrBuf is the smallest buffer DecodeInto allocates: a word of the
// Words datasets fits it.
const minStrBuf = 32

// EditDistance is the Levenshtein distance over byte strings. Distances are
// integers, so the space is discrete and indexed with δ = 1.
type EditDistance struct {
	// MaxLen is the maximum string length in the dataset; d+ = MaxLen
	// (transforming a string into an unrelated one of maximal length costs
	// at most MaxLen operations when the shorter can be empty).
	MaxLen int
}

// Distance implements DistanceFunc using Myers' bit-parallel algorithm
// (O(⌈m/64⌉·n), see myers.go) — the result is identical to the textbook
// dynamic program, only faster.
func (e EditDistance) Distance(a, b Object) float64 {
	sa, ok := a.(*Str)
	if !ok {
		panic(badType("EditDistance", "*Str", a))
	}
	sb, ok := b.(*Str)
	if !ok {
		panic(badType("EditDistance", "*Str", b))
	}
	return float64(editDistance(sa.S, sb.S))
}

// DistanceAtMost implements BoundedDistanceFunc with Ukkonen's banded
// dynamic program: only cells within |i-j| ≤ ⌊t⌋ of the diagonal are
// evaluated, and the computation abandons as soon as an entire band row
// exceeds the threshold. Thresholds ≥ the string lengths degrade to the
// exact bit-parallel kernel.
func (e EditDistance) DistanceAtMost(a, b Object, t float64) (float64, bool) {
	sa, ok := a.(*Str)
	if !ok {
		panic(badType("EditDistance", "*Str", a))
	}
	sb, ok := b.(*Str)
	if !ok {
		panic(badType("EditDistance", "*Str", b))
	}
	d, within := boundedEditDistance(sa.S, sb.S, t)
	return float64(d), within
}

// MaxDistance returns d+ = MaxLen.
func (e EditDistance) MaxDistance() float64 { return float64(e.MaxLen) }

// Discrete reports true: edit distances are integers.
func (e EditDistance) Discrete() bool { return true }

// Name implements DistanceFunc.
func (e EditDistance) Name() string { return "edit" }

// stripCommonAffixes removes the longest common prefix and suffix of a and b.
// Both operations preserve the edit distance, and on natural-language and
// DNA data they routinely shrink the DP matrix substantially.
func stripCommonAffixes(a, b string) (string, string) {
	for len(a) > 0 && len(b) > 0 && a[0] == b[0] {
		a, b = a[1:], b[1:]
	}
	for len(a) > 0 && len(b) > 0 && a[len(a)-1] == b[len(b)-1] {
		a, b = a[:len(a)-1], b[:len(b)-1]
	}
	return a, b
}

// boundedEditDistance reports whether editDistance(a, b) ≤ t, returning the
// exact distance when it is. The kernel strips common affixes and then
// screens without a dynamic program: on the length difference (every length
// gap costs at least one edit), then on the bag distance (bagDistance), which
// rejects most candidates of a tight bound. A survivor runs Ukkonen's banded
// DP (bandedEditDistance) or, when the band would cover most of the matrix,
// the exact bit-parallel kernel, which is then cheaper. The prepared kernel
// (editQuery.atMost) takes the same branches in the same order, so both
// return the same d even when it is not within.
func boundedEditDistance(a, b string, t float64) (int, bool) {
	if t < 0 {
		return 0, false
	}
	if a == b {
		return 0, true
	}
	a, b = stripCommonAffixes(a, b)
	if len(a) > len(b) {
		a, b = b, a
	}
	m, n := len(a), len(b)
	// Any threshold at or above the longer length admits everything: compute
	// exactly. This also keeps ⌊t⌋ well-defined for t = +Inf.
	if t >= float64(n) {
		return editDistance(a, b), true
	}
	k := int(t)
	if n-m > k {
		return n - m, false
	}
	if m == 0 {
		return n, true // n = |len(a)-len(b)| ≤ k here
	}
	if bag := bagDistance(a, b); bag > k {
		return bag, false
	}
	// A band of half-width k covers the whole matrix when 2k+1 ≥ m; the
	// bit-parallel exact kernel is then at least as cheap as the banded DP.
	if 2*k+1 >= m {
		d := editDistance(a, b)
		return d, d <= k
	}
	return bandedEditDistance(a, b, k)
}

// bagDistance returns the bag distance of a and b: the larger of the sizes of
// the multiset differences a∖b and b∖a of their bytes. An edit removes at
// most one byte from each difference, so the bag distance never exceeds the
// Levenshtein distance, and it costs one pass over each string and no
// dynamic program. Common affixes do not change it.
func bagDistance(a, b string) int {
	var h [256]int
	for i := 0; i < len(a); i++ {
		h[a[i]]++
	}
	return bagFrom(&h, len(a), b)
}

// bagFrom returns the bag distance of b and a string of n bytes whose byte
// histogram is h, and leaves h as it found it. A count is an int and never
// exceeds its string's length, itself an int, so no length overflows it.
func bagFrom(h *[256]int, n int, b string) int {
	miss := 0 // |b∖a|: the bytes of b that a has no copy left for
	for i := 0; i < len(b); i++ {
		c := b[i]
		if h[c]--; h[c] < 0 {
			miss++
		}
	}
	for i := 0; i < len(b); i++ {
		h[b[i]]++
	}
	// |a∖b| = n − (len(b) − miss).
	return max(miss, miss+n-len(b))
}

// bandedEditDistance is Ukkonen's banded DP over a and b, affix-stripped with
// a the shorter, for a threshold k with 2k+1 < len(a): with k = ⌊t⌋, any
// alignment of cost ≤ k only visits cells with |i-j| ≤ k, so each row
// evaluates at most 2k+1 cells and the whole computation abandons once an
// entire band row exceeds k.
//
// Only the band is stored, one row at a time: cell (i, j) sits at
// band[j−i+k+1], so a row's diagonal and upper neighbours of (i, j) are the
// previous row's values at the same index and the next, and its left
// neighbour the value just written below it. The row is rewritten in place,
// left to right. band[0] and band[2k+2] stand just outside the band and hold
// inf = k+1, which no alignment of cost ≤ k can pass through, so its exact
// value is irrelevant. The 2k+3 cells fit the stack buffer for every k ≤ 62,
// whatever the strings' lengths.
func bandedEditDistance(a, b string, k int) (int, bool) {
	m, n := len(a), len(b)
	inf := k + 1
	var stack [128]int
	var band []int
	if w := 2*k + 3; w <= len(stack) {
		band = stack[:w]
	} else {
		band = make([]int, w)
	}
	// Row 0: D[0][j] = j for j ≤ k (k < n because 2k+1 < m ≤ n); the cells
	// left of column 0 and right of column k are outside.
	for off := range band {
		band[off] = inf
	}
	for j := 0; j <= k; j++ {
		band[j+k+1] = j
	}

	for i := 1; i <= m; i++ {
		lo, hi := i-k, i+k
		if lo < 1 {
			lo = 1
			band[k+1-i] = i // D[i][0], the left neighbour of column 1
		}
		if hi > n {
			hi = n
		}
		rowMin := inf
		ca := a[i-1]
		for off, end := lo-i+k+1, hi-i+k+1; off <= end; off++ {
			cost := 1
			if ca == b[off+i-k-2] {
				cost = 0
			}
			best := band[off] + cost
			if d := band[off+1] + 1; d < best { // deletion
				best = d
			}
			if d := band[off-1] + 1; d < best { // insertion
				best = d
			}
			band[off] = best
			if best < rowMin {
				rowMin = best
			}
		}
		if rowMin > k {
			// Every in-band cell of this row exceeds k, and any alignment of
			// cost ≤ k must pass through the band in every row: abandon.
			return rowMin, false
		}
	}
	d := band[n-m+k+1]
	return d, d <= k
}

var (
	_ DistanceFunc        = EditDistance{}
	_ BoundedDistanceFunc = EditDistance{}
	_ SlotCodec           = StrCodec{}
)
