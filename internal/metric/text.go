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
// — a Str from anywhere else has no buf and gets one.
func (StrCodec) DecodeInto(slot Object, id uint64, data []byte) (Object, error) {
	s, ok := slot.(*Str)
	if !ok {
		s = new(Str)
	}
	s.Id, s.S = id, ""
	s.buf = append(s.buf[:0], data...)
	s.S = unsafe.String(unsafe.SliceData(s.buf), len(s.buf))
	return s, nil
}

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

// Levenshtein returns the edit distance between a and b (unit costs for
// insertion, deletion and substitution) using the classic two-row dynamic
// program. Common prefixes and suffixes are stripped first — if nothing else
// remains the distance is just |len(a)-len(b)| and the DP is skipped — and
// short strings run on a stack buffer instead of allocating the row.
func Levenshtein(a, b string) int {
	a, b = stripCommonAffixes(a, b)
	// Keep the shorter string as the DP row to bound memory.
	if len(a) < len(b) {
		a, b = b, a
	}
	if len(b) == 0 {
		return len(a)
	}
	// row[j] holds the distance between a[:i] and b[:j] for the current i.
	var stack [128]int
	var row []int
	if len(b) < len(stack) {
		row = stack[:len(b)+1]
	} else {
		row = make([]int, len(b)+1)
	}
	for j := range row {
		row[j] = j
	}
	for i := 1; i <= len(a); i++ {
		prev := row[0] // row[j-1] of the previous iteration (diagonal)
		row[0] = i
		ca := a[i-1]
		for j := 1; j <= len(b); j++ {
			cur := row[j]
			cost := 1
			if ca == b[j-1] {
				cost = 0
			}
			best := prev + cost
			if d := row[j] + 1; d < best { // deletion
				best = d
			}
			if d := row[j-1] + 1; d < best { // insertion
				best = d
			}
			row[j] = best
			prev = cur
		}
	}
	return row[len(b)]
}

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

// boundedEditDistance reports whether Levenshtein(a, b) ≤ t, returning the
// exact distance when it is. The kernel short-circuits on the length
// difference (every length gap costs at least one edit), strips common
// affixes, and then runs Ukkonen's banded DP: with k = ⌊t⌋, any alignment of
// cost ≤ k only visits cells with |i-j| ≤ k, so each row evaluates at most
// 2k+1 cells and the whole computation abandons once an entire band row
// exceeds k. When the band would cover most of the matrix, the exact
// bit-parallel kernel is cheaper and is used instead.
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
	// A band of half-width k covers the whole matrix when 2k+1 ≥ m; the
	// bit-parallel exact kernel is then at least as cheap as the banded DP.
	if 2*k+1 >= m {
		d := editDistance(a, b)
		return d, d <= k
	}

	// Banded two-row DP. inf = k+1 acts as the out-of-band sentinel: any
	// cell holding a value > k can never contribute to an alignment of cost
	// ≤ k, so its exact value is irrelevant.
	inf := k + 1
	var stack [128]int
	var prev, cur []int
	if 2*(n+1) <= len(stack) {
		prev, cur = stack[:n+1], stack[n+1:2*(n+1)]
	} else {
		buf := make([]int, 2*(n+1))
		prev, cur = buf[:n+1], buf[n+1:]
	}
	for j := 0; j <= k; j++ {
		prev[j] = j
	}
	prev[k+1] = inf // k+1 ≤ n because 2k+1 < m ≤ n

	for i := 1; i <= m; i++ {
		lo, hi := i-k, i+k
		if lo < 1 {
			lo = 1
			cur[0] = i
		} else {
			cur[lo-1] = inf
		}
		if hi > n {
			hi = n
		}
		rowMin := inf
		ca := a[i-1]
		for j := lo; j <= hi; j++ {
			cost := 1
			if ca == b[j-1] {
				cost = 0
			}
			best := prev[j-1] + cost
			if d := prev[j] + 1; d < best { // deletion
				best = d
			}
			if d := cur[j-1] + 1; d < best { // insertion
				best = d
			}
			cur[j] = best
			if best < rowMin {
				rowMin = best
			}
		}
		if hi < n {
			cur[hi+1] = inf // re-fence the band edge over the stale cell
		}
		if rowMin > k {
			// Every in-band cell of this row exceeds k, and any alignment of
			// cost ≤ k must pass through the band in every row: abandon.
			return rowMin, false
		}
		prev, cur = cur, prev
	}
	d := prev[n]
	return d, d <= k
}

var (
	_ DistanceFunc        = EditDistance{}
	_ BoundedDistanceFunc = EditDistance{}
	_ SlotCodec           = StrCodec{}
)
