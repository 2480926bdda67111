package metric

import "testing"

func TestSpaceResolve(t *testing.T) {
	for _, c := range []struct {
		sp      Space
		line    string
		maxDist float64 // 0: not checked
	}{
		{Space{Type: "words"}, "hello", 64}, // maxlen 0 means 64
		{Space{Type: "words", MaxLen: 34}, "hello", 34},
		{Space{Type: "vectors", Dim: 3}, "0.5, 1,2e-1", 0},
		{Space{Type: "dna"}, "ACGTACGT", 0},
		{Space{Type: "signatures", Width: 2}, " beef\n", 16},
	} {
		dist, codec, parse, err := c.sp.Resolve()
		if err != nil {
			t.Fatalf("%+v: %v", c.sp, err)
		}
		if c.maxDist != 0 && dist.MaxDistance() != c.maxDist {
			t.Errorf("%+v: MaxDistance = %v, want %v", c.sp, dist.MaxDistance(), c.maxDist)
		}
		o, err := parse(7, c.line)
		if err != nil {
			t.Fatalf("%+v: parse %q: %v", c.sp, c.line, err)
		}
		back, err := codec.Decode(7, o.AppendBinary(nil))
		if err != nil {
			t.Fatalf("%+v: decode: %v", c.sp, err)
		}
		if back.ID() != 7 || dist.Distance(o, back) != 0 {
			t.Errorf("%+v: %q did not survive parse + codec", c.sp, c.line)
		}
	}
	for _, sp := range []Space{{}, {Type: "images"}, {Type: "vectors"}, {Type: "signatures"}} {
		if _, _, _, err := sp.Resolve(); err == nil {
			t.Errorf("%+v resolved", sp)
		}
	}
	_, _, parse, _ := Space{Type: "vectors", Dim: 2}.Resolve()
	for _, line := range []string{"1", "1,2,3", "1,x"} {
		if _, err := parse(0, line); err == nil {
			t.Errorf("vector line %q parsed at dim 2", line)
		}
	}
	_, _, parse, _ = Space{Type: "signatures", Width: 2}.Resolve()
	for _, line := range []string{"be", "beefbeef", "zzzz"} {
		if _, err := parse(0, line); err == nil {
			t.Errorf("signature line %q parsed at width 2", line)
		}
	}
}
