package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyondTail is how many samples must lie beyond a tail percentile
// before it is reported: fewer, and the percentile is one or two
// unlucky samples rather than a property of the distribution.
const minBeyondTail = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs by the
// same exclusive method as Python's statistics.quantiles(xs, n=4), so
// spreads computed here and by an external checker agree. With a single
// value all three quartiles are that value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// tailPercentile returns the nearest-rank p-quantile of xs (0 < p < 1).
// It refuses when fewer than minBeyondTail samples lie beyond the rank:
// for p = 0.9 that takes at least 100 samples.
func tailPercentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	k := int(math.Ceil(p * float64(n)))
	if k < 1 {
		k = 1
	}
	if beyond := n - k; beyond < minBeyondTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*p, n, beyond, minBeyondTail)
	}
	return sorted(xs)[k-1], nil
}

// summary is one metric's distribution over the samples of a run.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

func summarize(xs []float64, unit string) summary {
	q1, _, q3 := quartiles(xs)
	return summary{Median: median(xs), Q1: q1, Q3: q3, N: len(xs), Unit: unit}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}
