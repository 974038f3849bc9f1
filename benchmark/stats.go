package main

import (
	"math"
	"sort"
	"strconv"
)

// num is a float64 that encodes NaN and Inf as JSON null, for detail
// files: a short run can leave an operation kind without samples.
type num float64

func (n num) MarshalJSON() ([]byte, error) {
	if !finite(float64(n)) {
		return []byte("null"), nil
	}
	return strconv.AppendFloat(nil, float64(n), 'g', -1, 64), nil
}

func nums(xs []float64) []num {
	out := make([]num, len(xs))
	for i, x := range xs {
		out[i] = num(x)
	}
	return out
}

// finite reports whether v is neither NaN nor an infinity.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// percentile returns the q-quantile (0 <= q <= 1) of xs by the
// nearest-rank rule on a sorted copy: the smallest sample with at
// least q*len(xs) samples at or below it. It is exact — no buckets —
// so a reported p99 is an observed operation time.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedPercentile(s, q)
}

func sortedPercentile(s []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median is the interpolating median (mean of the two middle samples
// for even counts); used over rounds and runs, where counts are small.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile of xs by the
// exclusive method, the default of Python's statistics.quantiles(n=4),
// so spreads computed here match the acceptance rule's.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // cut point i of 4
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4) // may leave [0, 4) after clamping: extrapolates, as Python does
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
