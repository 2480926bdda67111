package metric

// This file implements Myers' bit-parallel Levenshtein algorithm in the
// Hyyrö formulation: the DP matrix is encoded as vertical delta bit-vectors
// (Pv = positions where D[i][j] - D[i-1][j] = +1, Mv = -1) and one text
// character advances a whole 64-cell column slice with a handful of word
// operations, giving O(⌈m/64⌉·n) instead of the textbook O(m·n).
//
// Two variants:
//
//   - myersDistance64: the pattern fits one machine word (m ≤ 64). Covers
//     every string in the Words workload.
//   - myersDistanceBlock: ⌈m/64⌉ blocks chained through horizontal carries,
//     for DNA-length strings (hundreds of characters).
//
// Both return the exact Levenshtein distance; the dispatcher editDistance
// picks the variant.

// editDistance returns the Levenshtein distance between a and b using the
// fastest applicable kernel. It is the engine behind EditDistance.Distance.
func editDistance(a, b string) int {
	if a == b {
		return 0
	}
	// The pattern (bit-encoded side) is the shorter string: fewer blocks.
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return len(b)
	}
	if len(a) <= 64 {
		return myersDistance64(a, b)
	}
	return myersDistanceBlock(a, b)
}

// myersDistance64 computes the Levenshtein distance for a pattern of at most
// 64 characters against text. len(pattern) must be in [1, 64].
func myersDistance64(pattern, text string) int {
	// Peq[c] has bit i set iff pattern[i] == c.
	var peq [256]uint64
	for i := 0; i < len(pattern); i++ {
		peq[pattern[i]] |= 1 << uint(i)
	}
	return myersRun64(&peq, len(pattern), text)
}

// myersRun64 is the single-word kernel proper, with the pattern's equality
// bitmap prebuilt — the prepared kernel (editQuery) builds peq once per
// query and replays this loop per candidate (DESIGN.md §13.1).
func myersRun64(peq *[256]uint64, m int, text string) int {
	var pv uint64 = ^uint64(0)
	var mv uint64
	score := m
	msb := uint64(1) << uint(m-1)
	for i := 0; i < len(text); i++ {
		eq := peq[text[i]]
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&msb != 0 {
			score++
		} else if mh&msb != 0 {
			score--
		}
		// Shift the horizontal deltas down one row; the +1 carried into bit 0
		// encodes the first DP row D[0][j] = j.
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	return score
}

// myersBlockStackWords bounds the stack-backed scratch for the blocked
// variant: patterns up to 8 blocks (512 characters) with up to 16 distinct
// characters run allocation-free, which covers DNA sequences comfortably.
const myersBlockStackWords = 16 * 8

// myersDistanceBlock computes the Levenshtein distance for patterns longer
// than 64 characters using ⌈m/64⌉ chained blocks. Rather than a dense
// [256][w]uint64 equality table (2 KiB per block, mostly zeros), pattern
// characters are interned into slots so the table is distinct-chars × w
// words — tiny for DNA's 4-letter alphabet.
func myersDistanceBlock(pattern, text string) int {
	m := len(pattern)
	w := (m + 63) / 64

	// slot[c] is 1-based index into peq; 0 means c does not occur in pattern.
	var slot [256]uint16
	var peqStack [myersBlockStackWords]uint64
	peq := peqStack[:0]
	distinct := 0
	for i := 0; i < m; i++ {
		c := pattern[i]
		if slot[c] == 0 {
			distinct++
			slot[c] = uint16(distinct)
			for k := 0; k < w; k++ {
				peq = append(peq, 0)
			}
		}
		peq[(int(slot[c])-1)*w+i/64] |= 1 << uint(i%64)
	}
	return myersRunBlock(&slot, peq, w, m, text)
}

// myersRunBlock is the multi-block kernel proper, with the interned slot
// table and equality bitmaps prebuilt; the prepared kernel (editQuery)
// builds them once per query and replays this loop per candidate.
func myersRunBlock(slot *[256]uint16, peq []uint64, w, m int, text string) int {
	var vStack [16]uint64 // Pv and Mv for up to 8 blocks
	var pv, mvec []uint64
	if 2*w <= len(vStack) {
		pv, mvec = vStack[:w], vStack[w:2*w]
	} else {
		buf := make([]uint64, 2*w)
		pv, mvec = buf[:w], buf[w:]
	}
	for k := range pv {
		pv[k] = ^uint64(0)
		mvec[k] = 0
	}

	score := m
	// The score is tracked at the pattern's last cell: bit (m-1) mod 64 of
	// the last block.
	lastMSB := uint64(1) << uint((m-1)%64)
	last := w - 1
	for i := 0; i < len(text); i++ {
		var eqRow []uint64
		if s := slot[text[i]]; s != 0 {
			eqRow = peq[(int(s)-1)*w : int(s)*w]
		}
		hin := 1 // D[0][j] - D[0][j-1] = +1 enters block 0
		for k := 0; k < w; k++ {
			var eq uint64
			if eqRow != nil {
				eq = eqRow[k]
			}
			p, mw := pv[k], mvec[k]
			if hin < 0 {
				eq |= 1
			}
			xv := eq | mw
			xh := (((eq & p) + p) ^ p) | eq
			ph := mw | ^(xh | p)
			mh := p & xh

			hout := 0
			carry := uint64(1) << 63
			if k == last {
				carry = lastMSB
			}
			if ph&carry != 0 {
				hout = 1
			} else if mh&carry != 0 {
				hout = -1
			}

			ph <<= 1
			mh <<= 1
			if hin > 0 {
				ph |= 1
			} else if hin < 0 {
				mh |= 1
			}
			pv[k] = mh | ^(xv | ph)
			mvec[k] = ph & xv
			hin = hout
		}
		score += hin
	}
	return score
}
