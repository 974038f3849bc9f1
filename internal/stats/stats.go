// Package stats provides the small sample statistics the benchmark
// harness reports: min, max, mean, median and standard deviation over
// repeated timings, plus speedup calculations.
package stats

import (
	"math"
	"sort"
	"time"
)

// Sample summarizes a set of duration measurements.
type Sample struct {
	N      int
	Min    time.Duration
	Max    time.Duration
	Mean   time.Duration
	Median time.Duration
	Stddev time.Duration
}

// Summarize computes a Sample from ds. An empty input yields a zero
// Sample.
func Summarize(ds []time.Duration) Sample {
	if len(ds) == 0 {
		return Sample{}
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	var sum float64
	for _, d := range sorted {
		sum += float64(d)
	}
	mean := sum / float64(len(sorted))

	var sq float64
	for _, d := range sorted {
		diff := float64(d) - mean
		sq += diff * diff
	}
	std := 0.0
	if len(sorted) > 1 {
		std = math.Sqrt(sq / float64(len(sorted)-1))
	}

	mid := len(sorted) / 2
	median := sorted[mid]
	if len(sorted)%2 == 0 {
		median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return Sample{
		N:      len(sorted),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Mean:   time.Duration(mean),
		Median: median,
		Stddev: time.Duration(std),
	}
}

// PercentileNs returns the q-quantile (0 <= q <= 1) of ns by linear
// interpolation between order statistics (the R-7 / NumPy "linear"
// definition): rank h = q*(n-1) selects sorted[floor(h)] blended with
// sorted[ceil(h)] by the fractional part. The input is not modified.
// An empty input yields 0; q is clamped to [0, 1].
//
// Latency gating reads tails through this: p50/p99/p999 are
// PercentileNs(samples, 0.50/0.99/0.999). With n samples the largest
// observation dominates every quantile past (n-1)/n, so a p999 from a
// few hundred requests is close to the max — report it, but bound
// invariants on p99.
func PercentileNs(ns []int64, q float64) int64 {
	if len(ns) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := make([]int64, len(ns))
	copy(sorted, ns)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	h := q * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	if lo == hi {
		return sorted[lo]
	}
	frac := h - float64(lo)
	return sorted[lo] + int64(frac*float64(sorted[hi]-sorted[lo]))
}

// Speedup returns base/measured — how many times faster measured is
// than base. A non-positive measured duration yields 0.
func Speedup(base, measured time.Duration) float64 {
	if measured <= 0 {
		return 0
	}
	return float64(base) / float64(measured)
}
