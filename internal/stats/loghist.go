package stats

import (
	"fmt"
	"io"
	"math/bits"
	"strings"
)

// LogHist is a log-bucketed histogram of non-negative int64 values:
// bucket i >= 1 holds values in [2^(i-1), 2^i); bucket 0 holds
// values <= 0 (clamped). It is the fixed-size, allocation-free
// distribution summary the trace tooling uses for steal latencies
// (nanoseconds) and loop-chunk sizes (iterations), where the
// interesting structure spans several orders of magnitude.
//
// The zero LogHist is ready to use. LogHist is not safe for
// concurrent use.
type LogHist struct {
	counts [65]int64
	n      int64
	sum    int64
	min    int64
	max    int64
}

// NumBuckets is the fixed bucket count of the log-bucket geometry.
// internal/metrics.Histogram reuses it (one atomic counter per bucket)
// so live histograms and offline LogHist summaries bucket identically.
const NumBuckets = 65

// BucketOf returns the bucket index for v — the exported form of the
// geometry for concurrent reimplementations that can't embed LogHist.
func BucketOf(v int64) int { return bucketOf(v) }

// BucketBounds returns the inclusive lower and exclusive upper value
// bounds of bucket i.
func BucketBounds(i int) (lo, hi int64) { return bucketLo(i), bucketHi(i) }

// bucketOf returns the bucket index for v: 0 for v <= 0, else
// bits.Len64(v), so bucket i >= 1 holds [2^(i-1), 2^i) and exact
// powers of two open their bucket.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Add records one value. Negative values are clamped to zero.
func (h *LogHist) Add(v int64) {
	if v < 0 {
		v = 0
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	h.counts[bucketOf(v)]++
}

// N returns the number of recorded values.
func (h *LogHist) N() int64 { return h.n }

// bucketLo and bucketHi return the inclusive lower and exclusive
// upper value bounds of bucket i.
func bucketLo(i int) int64 {
	if i == 0 {
		return 0
	}
	return int64(1) << (i - 1)
}

func bucketHi(i int) int64 {
	if i >= 63 {
		return int64(1)<<62 - 1 + int64(1)<<62 // MaxInt64
	}
	return int64(1) << i
}

// Buckets calls fn for every non-empty bucket in ascending order with
// the bucket's bounds [lo, hi) and count.
func (h *LogHist) Buckets(fn func(lo, hi, count int64)) {
	for i, c := range h.counts {
		if c > 0 {
			fn(bucketLo(i), bucketHi(i), c)
		}
	}
}

// Render writes the histogram as one bar line per non-empty bucket.
// format renders a bucket bound as a label (e.g. a duration or a
// plain count); a nil format prints raw integers. The bars are scaled
// so the fullest bucket spans width characters.
func (h *LogHist) Render(w io.Writer, width int, format func(v int64) string) {
	if h.n == 0 {
		fmt.Fprintln(w, "  (empty)")
		return
	}
	if width < 1 {
		width = 40
	}
	if format == nil {
		format = func(v int64) string { return fmt.Sprintf("%d", v) }
	}
	var peak int64
	h.Buckets(func(_, _, c int64) {
		if c > peak {
			peak = c
		}
	})
	h.Buckets(func(lo, hi, c int64) {
		bar := int(float64(width) * float64(c) / float64(peak))
		if bar < 1 {
			bar = 1
		}
		fmt.Fprintf(w, "  [%8s, %8s) %-*s %d\n",
			format(lo), format(hi), width, strings.Repeat("#", bar), c)
	})
}
