package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of vals,
// which need not be sorted; 0 for an empty slice. Nearest rank never
// interpolates, so the reported latency is one that a request actually saw.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median returns the middle value of vals (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartileSpread returns (Q3−Q1)/median of vals with the quartiles of
// Python's statistics.quantiles(vals, n=4) (the exclusive method) — the
// spread the benchmark contract judges steadiness by. Fewer than two values,
// or a zero median, give 0.
func quartileSpread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(i int) float64 { // i-th of 4 cut points
		n := len(s)
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}

// meanOf returns the arithmetic mean of vals; 0 for an empty slice.
func meanOf(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// ratio returns a/b, and 0 when b is 0 — the value of a ratio metric on a
// workload where its layer did no work.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// measured is one reported metric: the median over its samples (timed passes
// or set-up repetitions), how many there were, and Spread, an estimate of how
// far the reported value itself would move from run to run: the samples'
// quartile spread divided by the square root of their number.
type measured struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Spread  float64 `json:"spread"`
	Samples int     `json:"samples"`
}

// ofSamples reports the median of per-pass (or per-repetition) values.
func ofSamples(unit string, vals []float64) measured {
	return measured{Value: median(vals), Unit: unit, Spread: spreadOfMedian(vals), Samples: len(vals)}
}

// spreadOfMedian estimates the run-to-run quartile spread of a statistic
// computed from all of vals, from the spread among vals themselves.
func spreadOfMedian(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return quartileSpread(vals) / math.Sqrt(float64(len(vals)))
}

// single reports a value measured once per run (a count, a size, a ratio).
func single(unit string, v float64) measured {
	return measured{Value: v, Unit: unit, Samples: 1}
}
