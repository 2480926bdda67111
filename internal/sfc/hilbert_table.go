package sfc

import "sync"

// maxTableDims is the largest dimensionality whose Hilbert encode runs
// through a state table: dims! × 2^dims entries is 3 840 (15 KB) at 5 and
// 46 080 (180 KB) at 6, past what stays in a core's L1 cache.
const maxTableDims = 5

// hilbertTable is the forward state table of the Hilbert curve: the encoder
// runs Skilling's inverse (transposeToAxes, the decode direction) top-down
// and backwards, one dims-bit digit per level instead of one bit per level
// and dimension.
//
// After the Gray decode, Skilling's inverse visits levels from the bottom;
// the step at level l reads the Gray digit g_l (the level-l bits of every
// dimension, which no earlier step touched) and applies to every lower
// level the same signed permutation T(g_l) of the dimensions — exchanges
// with dimension 0 and inversions of it. So the coordinate digit at level l
// is c_l = S_l(g_l) with S_l = T(g_{b-1}) ∘ … ∘ T(g_{l+1}), and
// S_{l-1} = S_l ∘ T(g_l). A signed permutation is a permutation π of the
// digit's bits and a flip mask f; composing, S ∘ T has permutation π_T∘π_S
// and flip f_S ^ π_S(f_T). The flip mask needs no table: the encoder keeps
// it in a register. Given c_l and f, π_S(g_l) = c_l ^ f, so the table,
// indexed by (state π_S, c_l ^ f), holds the three things one level needs:
//
//	bits [0, dims)        g_l, the Gray digit
//	bits [dims, 2·dims)   π_S(f_T(g_l)), the flip-mask delta
//	bits [2·dims, …)      the next state's index, premultiplied by 2^dims
//
// Digits use the key's bit order: dimension i is bit dims-1-i. The Gray
// digits come out top-down, and the key is their inverse Gray code.
type hilbertTable []uint32

// hilbertTables shares one forward table per dimensionality across the
// process.
var hilbertTables sync.Map

// hilbertTableFor returns the forward state table of a dims-dimensional
// curve, or nil above maxTableDims.
func hilbertTableFor(dims int) hilbertTable {
	if dims > maxTableDims {
		return nil
	}
	if t, ok := hilbertTables.Load(dims); ok {
		return t.(hilbertTable)
	}
	perms := permutations(dims)
	index := make(map[[maxTableDims]uint8]uint32, len(perms))
	for i, p := range perms {
		index[p] = uint32(i)
	}
	tab := make(hilbertTable, len(perms)<<dims)
	for s, ps := range perms {
		for g := uint32(0); g < 1<<dims; g++ {
			pt, ft := skillingStep(g, dims)
			var next [maxTableDims]uint8
			for k := 0; k < dims; k++ {
				next[k] = pt[ps[k]]
			}
			digit, delta := permuteBits(ps, g, dims), permuteBits(ps, ft, dims)
			tab[s<<dims|int(digit)] = g | delta<<dims | index[next]<<dims<<(2*dims)
		}
	}
	t, _ := hilbertTables.LoadOrStore(dims, tab)
	return t.(hilbertTable)
}

// key returns the Hilbert key of the point whose coordinates are
// interleaved in coords (a cell word through packTable). Bits at or above
// dims*bits are ignored.
func (tab hilbertTable) key(coords uint64, dims, bits int) uint64 {
	// Shift counts are masked to their range so that they compile to bare
	// shifts: dims ≤ maxTableDims and 0 < dims*bits ≤ 64.
	n := uint(dims) & 7
	width := uint(dims * bits)
	dmask := uint32(1)<<n - 1
	var g uint64
	var flip, state uint32
	for sh := width; sh > 0; {
		sh -= n
		e := tab[state|(uint32(coords>>(sh&63))&dmask^flip)]
		g = g<<n | uint64(e&dmask)
		flip ^= e >> n & dmask
		state = e >> (2 * n)
	}
	// Undo the Gray decode g = key ^ key>>1: each key bit is the XOR of the
	// Gray bits at and above it.
	for s := uint(1); s < 64; s <<= 1 {
		g ^= g >> s
	}
	return g
}

// skillingStep returns the signed permutation one level of Skilling's
// inverse (transposeToAxes) applies to the levels below it, given that
// level's Gray digit g: output bit k of the map is input bit perm[k] XOR bit
// k of flip.
func skillingStep(g uint32, dims int) (perm [maxTableDims]uint8, flip uint32) {
	for k := range perm[:dims] {
		perm[k] = uint8(k)
	}
	b0 := dims - 1 // dimension 0's bit
	for i := dims - 1; i >= 0; i-- {
		bi := dims - 1 - i
		switch {
		case g>>bi&1 != 0:
			flip ^= 1 << b0 // invert dimension 0
		case i > 0:
			// Exchange dimensions 0 and i.
			perm[b0], perm[bi] = perm[bi], perm[b0]
			if flip>>b0&1 != flip>>bi&1 {
				flip ^= 1<<b0 | 1<<bi
			}
		}
	}
	return perm, flip
}

// permuteBits returns the digit whose bit k is bit perm[k] of v.
func permuteBits(perm [maxTableDims]uint8, v uint32, dims int) uint32 {
	var out uint32
	for k := 0; k < dims; k++ {
		out |= (v >> perm[k] & 1) << k
	}
	return out
}

// permutations lists every permutation of 0..n-1.
func permutations(n int) [][maxTableDims]uint8 {
	var out [][maxTableDims]uint8
	var p [maxTableDims]uint8
	var used [maxTableDims]bool
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, p)
			return
		}
		for v := 0; v < n; v++ {
			if !used[v] {
				used[v], p[k] = true, uint8(v)
				rec(k + 1)
				used[v] = false
			}
		}
	}
	rec(0)
	return out
}
