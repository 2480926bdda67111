package metric

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The Distance benchmarks compare every fast kernel against its pre-PR5
// reference implementation (the textbook two-row DP and the math.Pow Lp
// loop), so a kernel regression shows up as a benchmark regression. CI runs
// them with -bench=Distance -benchtime=1x as a smoke test.

// referenceEditDistance is the pre-PR5 EditDistance kernel: the textbook
// two-row dynamic program with a heap-allocated row.
func referenceEditDistance(a, b string) int {
	if a == b {
		return 0
	}
	if len(a) < len(b) {
		a, b = b, a
	}
	if len(b) == 0 {
		return len(a)
	}
	row := make([]int, len(b)+1)
	for j := range row {
		row[j] = j
	}
	for i := 1; i <= len(a); i++ {
		prev := row[0]
		row[0] = i
		ca := a[i-1]
		for j := 1; j <= len(b); j++ {
			cur := row[j]
			cost := 1
			if ca == b[j-1] {
				cost = 0
			}
			best := prev + cost
			if d := row[j] + 1; d < best {
				best = d
			}
			if d := row[j-1] + 1; d < best {
				best = d
			}
			row[j] = best
			prev = cur
		}
	}
	return row[len(b)]
}

// referenceL5Distance is the pre-PR5 LpNorm default case: math.Pow twice per
// coordinate.
func referenceL5Distance(a, b *Vector) float64 {
	var s float64
	for i, c := range a.Coords {
		s += math.Pow(math.Abs(c-b.Coords[i]), 5)
	}
	return math.Pow(s, 1.0/5)
}

func benchWords(n, maxLen int) []*Str {
	rng := rand.New(rand.NewSource(42))
	out := make([]*Str, n)
	for i := range out {
		out[i] = NewStr(uint64(i), randString(rng, maxLen, 26))
	}
	return out
}

func benchDNA(n, length int) []*Str {
	rng := rand.New(rand.NewSource(43))
	out := make([]*Str, n)
	for i := range out {
		s := make([]byte, length)
		for j := range s {
			s[j] = "ACGT"[rng.Intn(4)]
		}
		out[i] = NewStr(uint64(i), string(s))
	}
	return out
}

func BenchmarkDistanceEditReferenceDP(b *testing.B) {
	words := benchWords(256, 24)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := words[i%len(words)]
		referenceEditDistance(w.S, words[(i+1)%len(words)].S)
	}
}

func BenchmarkDistanceEditMyers(b *testing.B) {
	words := benchWords(256, 24)
	fn := EditDistance{MaxLen: 24}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fn.Distance(words[i%len(words)], words[(i+1)%len(words)])
	}
}

func BenchmarkDistanceEditBounded(b *testing.B) {
	// Threshold 4 on words of length ≤ 24: the banded kernel touches a
	// 9-cell band per row and usually abandons within a few rows.
	words := benchWords(256, 24)
	fn := EditDistance{MaxLen: 24}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fn.DistanceAtMost(words[i%len(words)], words[(i+1)%len(words)], 4)
	}
}

func BenchmarkDistanceEditDNAReferenceDP(b *testing.B) {
	seqs := benchDNA(64, 160)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		referenceEditDistance(seqs[i%len(seqs)].S, seqs[(i+1)%len(seqs)].S)
	}
}

func BenchmarkDistanceEditDNAMyersBlock(b *testing.B) {
	seqs := benchDNA(64, 160)
	fn := EditDistance{MaxLen: 160}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fn.Distance(seqs[i%len(seqs)], seqs[(i+1)%len(seqs)])
	}
}

func benchVectors(n, dim int) []*Vector {
	rng := rand.New(rand.NewSource(44))
	out := make([]*Vector, n)
	for i := range out {
		out[i] = NewVector(uint64(i), randCoords(rng, dim))
	}
	return out
}

func BenchmarkDistanceL5ReferencePow(b *testing.B) {
	vecs := benchVectors(256, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		referenceL5Distance(vecs[i%len(vecs)], vecs[(i+1)%len(vecs)])
	}
}

func BenchmarkDistanceL5IntPow(b *testing.B) {
	vecs := benchVectors(256, 16)
	fn := L5(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fn.Distance(vecs[i%len(vecs)], vecs[(i+1)%len(vecs)])
	}
}

func BenchmarkDistanceL2Bounded(b *testing.B) {
	vecs := benchVectors(256, 16)
	fn := L2(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fn.DistanceAtMost(vecs[i%len(vecs)], vecs[(i+1)%len(vecs)], 0.3)
	}
}

func BenchmarkDistanceHammingBounded(b *testing.B) {
	rng := rand.New(rand.NewSource(45))
	sigs := make([]*BitString, 256)
	for i := range sigs {
		s := make([]byte, 64)
		rng.Read(s)
		sigs[i] = NewBitString(uint64(i), s)
	}
	fn := Hamming{Bytes: 64}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fn.DistanceAtMost(sigs[i%len(sigs)], sigs[(i+1)%len(sigs)], 100)
	}
}

// BenchmarkPayloadAtMost is the cost of evaluating one stored candidate, the
// query path's unit of verification work: the generic binding (decode into a
// slot, then DistanceAtMost) against the kernel Prepare returns, which reads
// the payload in place. The candidates lie in one buffer as the random access
// file lays records out, a 12-byte header before each payload, so most
// vector payloads are misaligned, and the bound admits about 1 % of them.
// ns/op is per candidate.
func BenchmarkPayloadAtMost(b *testing.B) {
	const n = 1024
	rng := rand.New(rand.NewSource(46))
	vecs := func(dim int, wide bool) []Object {
		out := make([]Object, n)
		for i := range out {
			v := NewVector(uint64(i), randCoords(rng, dim))
			if wide {
				out[i] = v
			} else {
				out[i] = NewVector32From64(v.Id, v.Coords)
			}
		}
		return out
	}
	sigs := make([]Object, n)
	for i := range sigs {
		s := make([]byte, 64)
		rng.Read(s)
		sigs[i] = NewBitString(uint64(i), s)
	}
	for _, c := range []struct {
		name  string
		fn    DistanceFunc
		codec Codec
		objs  []Object
	}{
		{"L5-vec32", L5(16), Vector32Codec{Dim: 16}, vecs(16, false)},
		{"L5-vec64", L5(16), VectorCodec{Dim: 16}, vecs(16, true)},
		{"L2-vec64", L2(16), VectorCodec{Dim: 16}, vecs(16, true)},
		{"hamming", Hamming{Bytes: 64}, BitStringCodec{Bytes: 64}, sigs},
	} {
		q := c.objs[0]
		var raw []byte
		payloads := make([][]byte, n)
		dists := make([]float64, n)
		for i, o := range c.objs {
			raw = append(raw, make([]byte, 12)...)
			at := len(raw)
			raw = o.AppendBinary(raw)
			payloads[i] = raw[at:len(raw):len(raw)]
			dists[i] = c.fn.Distance(q, o)
		}
		sort.Float64s(dists)
		bound := dists[n/100]
		for _, k := range []struct {
			name string
			prep PreparedQuery
		}{
			{"generic", boundQuery{c.fn, c.codec}},
			{"in-place", Prepare(c.fn, c.codec, q, nil)},
		} {
			b.Run(c.name+"/"+k.name, func(b *testing.B) {
				var slot Object
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					j := i % n
					_, _, obj, err := k.prep.PayloadAtMost(q, uint64(j), payloads[j], slot, bound)
					if err != nil {
						b.Fatal(err)
					}
					if obj != nil {
						slot = obj
					}
				}
			})
		}
	}
}
