package metrics

import (
	"math"
	"sync/atomic"

	"threading/internal/stats"
)

// Histogram is the concurrent counterpart of stats.LogHist: the same
// 65-bucket log-2 geometry (stats.BucketOf / stats.BucketBounds), but
// every bucket is an atomic counter so many goroutines can Observe
// without locks. Observe is three atomic adds and no allocation —
// cheap enough for the per-request latency path.
//
// The zero Histogram is ready; obtain registered histograms from
// Registry.Histogram.
type Histogram struct {
	counts [stats.NumBuckets]atomic.Int64
	n      atomic.Int64
	sum    atomic.Int64
}

// Observe records one value (negative values clamp to zero, matching
// LogHist.Add).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[stats.BucketOf(v)].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
}

// histSnapshot is a point-in-time copy of the bucket counts. The copy
// is not a consistent cut (observers keep writing), so n is derived
// from the copied buckets rather than the atomic total — that keeps
// the cumulative bucket lines and the _count line exposition emits
// mutually consistent, which Prometheus requires.
type histSnapshot struct {
	counts [stats.NumBuckets]int64
	n      int64
	sum    int64
}

func (h *Histogram) snapshot() histSnapshot {
	var s histSnapshot
	for i := range h.counts {
		c := h.counts[i].Load()
		s.counts[i] = c
		s.n += c
	}
	s.sum = h.sum.Load()
	return s
}

// quantile returns an upper bound for the q-quantile (q in [0, 1]) of
// a snapshot: the upper edge of the bucket where the cumulative count
// crosses q*N, exact to within one bucket (a factor of two).
func (s *histSnapshot) quantile(q float64) int64 {
	if s.n == 0 {
		return 0
	}
	q = math.Min(math.Max(q, 0), 1)
	target := int64(q * float64(s.n))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range s.counts {
		cum += c
		if cum >= target {
			_, hi := stats.BucketBounds(i)
			return hi
		}
	}
	_, hi := stats.BucketBounds(len(s.counts) - 1)
	return hi
}
