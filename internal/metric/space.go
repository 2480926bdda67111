package metric

import (
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// Space is the persisted description of an object space: what spbtool
// writes to an index's config.json, spbserve reads back, and a cluster
// config embeds. Resolve is the one place its fields become a metric.
type Space struct {
	Type   string `json:"type"`             // words | vectors | dna | signatures
	Dim    int    `json:"dim,omitempty"`    // vectors
	Width  int    `json:"width,omitempty"`  // signatures, bytes
	MaxLen int    `json:"maxlen,omitempty"` // words, for d+; 0 means 64
}

// Resolve returns the space's distance function, its codec, and the parser
// of its one-object-per-line text form (a word, comma-separated
// coordinates, a DNA sequence, a hex signature).
func (s Space) Resolve() (DistanceFunc, Codec, func(id uint64, line string) (Object, error), error) {
	switch s.Type {
	case "words":
		maxLen := s.MaxLen
		if maxLen == 0 {
			maxLen = 64
		}
		return EditDistance{MaxLen: maxLen}, StrCodec{},
			func(id uint64, line string) (Object, error) { return NewStr(id, line), nil }, nil
	case "vectors":
		if s.Dim <= 0 {
			return nil, nil, nil, fmt.Errorf("vectors need dim")
		}
		return L2(s.Dim), VectorCodec{Dim: s.Dim}, func(id uint64, line string) (Object, error) {
			fields := strings.Split(line, ",")
			if len(fields) != s.Dim {
				return nil, fmt.Errorf("line has %d fields, want %d", len(fields), s.Dim)
			}
			coords := make([]float64, s.Dim)
			for i, f := range fields {
				v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
				if err != nil {
					return nil, fmt.Errorf("field %d: %w", i, err)
				}
				coords[i] = v
			}
			return NewVector(id, coords), nil
		}, nil
	case "dna":
		return TrigramAngular{}, SeqCodec{},
			func(id uint64, line string) (Object, error) { return NewSeq(id, line), nil }, nil
	case "signatures":
		if s.Width <= 0 {
			return nil, nil, nil, fmt.Errorf("signatures need width")
		}
		return Hamming{Bytes: s.Width}, BitStringCodec{Bytes: s.Width}, func(id uint64, line string) (Object, error) {
			b, err := hex.DecodeString(strings.TrimSpace(line))
			if err != nil {
				return nil, err
			}
			if len(b) != s.Width {
				return nil, fmt.Errorf("signature is %d bytes, want %d", len(b), s.Width)
			}
			return NewBitString(id, b), nil
		}, nil
	}
	return nil, nil, nil, fmt.Errorf("unknown type %q (words|vectors|dna|signatures)", s.Type)
}
