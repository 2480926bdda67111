package graph

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

func testGraph(t *testing.T) *Graph {
	t.Helper()
	const n = 120
	_, dist := testPoints(n, 3)
	g, _, err := Build(context.Background(), n, dist, Options{K: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	g.IDs = make([]uint64, n)
	g.Offs = make([]uint64, n)
	for i := range g.IDs {
		g.IDs[i] = uint64(1000 + i)
		g.Offs[i] = uint64(64 * i)
	}
	g.BaseCount = n
	g.BaseSize = 64 * n
	return g
}

func TestCodecRoundtrip(t *testing.T) {
	g := testGraph(t)
	got, err := Decode(g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, got) {
		t.Fatal("decoded graph differs from the original")
	}
}

func TestCodecTruncation(t *testing.T) {
	raw := testGraph(t).Encode()
	for _, n := range []int{0, 1, 11, len(raw) / 2, len(raw) - 1} {
		if _, err := Decode(raw[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated to %d bytes: err = %v, want ErrCorrupt", n, err)
		}
	}
}

func TestCodecCorruption(t *testing.T) {
	raw := testGraph(t).Encode()
	for _, pos := range []int{0, 5, len(raw) / 2, len(raw) - 13, len(raw) - 5, len(raw) - 1} {
		bad := append([]byte(nil), raw...)
		bad[pos] ^= 0x40
		if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flipped byte %d: err = %v, want ErrCorrupt", pos, err)
		}
	}
	if _, err := Decode(append(append([]byte(nil), raw...), 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatal("trailing byte not detected")
	}
}

func FuzzGraphCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("SPBG"))
	const n = 40
	_, dist := testPoints(n, 3)
	g, _, err := Build(context.Background(), n, dist, Options{K: 4})
	if err != nil {
		f.Fatal(err)
	}
	g.IDs = make([]uint64, n)
	g.Offs = make([]uint64, n)
	g.BaseCount, g.BaseSize = n, 640
	f.Add(g.Encode())
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Decode must never panic, and anything it accepts must re-encode to
		// an equivalent graph (full roundtrip fidelity).
		d, err := Decode(raw)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-typed decode error: %v", err)
			}
			return
		}
		d2, err := Decode(d.Encode())
		if err != nil {
			t.Fatalf("re-decode of accepted graph failed: %v", err)
		}
		if !reflect.DeepEqual(d, d2) {
			t.Fatal("re-decode changed the graph")
		}
	})
}
