// Package benchgate is the repository's performance gate: the paper's
// ordering claims (work-sharing beats eager work-stealing on flat
// loops; lazy splitting beats eager at stress grain; cilk_spawn beats
// omp task on fib), the bounded costs of pinning and sharding, and
// low-load tail parity across runtimes, each written as a
// machine-checked invariant between two series and evaluated on
// fresh samples taken in one run at threads = GOMAXPROCS.
//
// Nothing is compared against a stored baseline: every claim is a
// ratio between two series measured side by side, so it holds or
// fails on the machine at hand. A series is measured only if some
// invariant reads it. Kernel series run rep by rep, round-robin, and
// the latency series share each offered-load window, so drift
// (frequency scaling, noisy neighbours) lands on both sides of every
// ratio. Change-versus-parent comparison is the benchmark of record's
// job (benchmark/, BENCHMARK.json), not this package's.
package benchgate

import (
	"context"
	"fmt"
	"io"
	"time"

	"threading/internal/stats"
)

// Key identifies one measured series: a kernel executed under a model
// at a thread count, grain and loop partitioner, optionally sharded or
// pinned — or, when Offered is set, a service-scenario series whose
// samples are per-request latencies at that offered load.
type Key struct {
	// Kernel names the workload, e.g. "axpy".
	Kernel string
	// Model is the threading model, e.g. "omp_for".
	Model string
	// Threads is the degree of parallelism.
	Threads int
	// Grain is the fixed loop grain; 0 is the runtime's default
	// heuristic.
	Grain int
	// Partitioner is "eager" or "lazy" for the work-stealing models
	// and "-" for models the option does not apply to.
	Partitioner string
	// Shards and Balancer identify a sharded series: the shard count
	// the model's runtime is split into and the routing balancer.
	Shards   int
	Balancer string
	// Pinned marks a series measured with the runtime's workers locked
	// to OS threads (models.WithPinnedWorkers).
	Pinned bool
	// Offered is the service scenario's offered load in requests per
	// second; zero for kernel series.
	Offered int
}

func (k Key) String() string {
	s := fmt.Sprintf("%s/%s t=%d g=%d %s",
		k.Kernel, k.Model, k.Threads, k.Grain, k.Partitioner)
	if k.Shards != 0 {
		s += fmt.Sprintf(" s=%d/%s", k.Shards, k.Balancer)
	}
	if k.Pinned {
		s += " pinned"
	}
	if k.Offered != 0 {
		s += fmt.Sprintf(" @%drps", k.Offered)
	}
	return s
}

// Series is one key plus its raw samples: repetition wall times for a
// kernel series, per-request latencies for a service series.
type Series struct {
	Key
	// SampleNs holds every sample, in nanoseconds, in measurement
	// order.
	SampleNs []int64
	// Goodput, ShedRate and QueueDepth describe a service series:
	// completed-OK requests per second over the measured window, the
	// shed (429) fraction of arrivals, and the peak admission-queue
	// depth. Zero for kernel series.
	Goodput    float64
	ShedRate   float64
	QueueDepth int
}

// Report is the fresh samples of one gate run.
type Report struct {
	Series []Series
}

// Add appends a series.
func (r *Report) Add(s Series) { r.Series = append(r.Series, s) }

// Find returns the series with the given key, or nil.
func (r *Report) Find(k Key) *Series {
	for i := range r.Series {
		if r.Series[i].Key == k {
			return &r.Series[i]
		}
	}
	return nil
}

// Measure takes fresh samples of every series the invariants read:
// the kernel series first (RunSuite), then the service series
// (RunLatencySuite), each at the size the gate of record uses.
func Measure(ctx context.Context, invs []Invariant) (*Report, error) {
	var kernel, latency []Key
	for _, k := range Keys(invs) {
		if k.Offered != 0 {
			latency = append(latency, k)
		} else {
			kernel = append(kernel, k)
		}
	}
	rep, err := RunSuite(ctx, kernel, SuiteConfig{})
	if err != nil {
		return nil, err
	}
	lat, err := RunLatencySuite(ctx, latency, LatencySuiteConfig{})
	if err != nil {
		return nil, err
	}
	rep.Series = append(rep.Series, lat.Series...)
	return rep, nil
}

// Summary condenses one series' samples: min, median, and a
// distribution-free ~95% confidence interval on the median.
type Summary struct {
	N        int
	MinNs    int64
	MedianNs int64
	CILoNs   int64
	CIHiNs   int64
}

// Summarize computes a Summary from raw nanosecond samples.
func Summarize(ns []int64) Summary {
	if len(ns) == 0 {
		return Summary{}
	}
	ds := make([]time.Duration, len(ns))
	for i, v := range ns {
		ds[i] = time.Duration(v)
	}
	s := stats.Summarize(ds)
	lo, hi := stats.MedianCI(toFloat(ns), 0.95)
	return Summary{
		N:        s.N,
		MinNs:    int64(s.Min),
		MedianNs: int64(s.Median),
		CILoNs:   int64(lo),
		CIHiNs:   int64(hi),
	}
}

// WriteSeriesTable renders the report: kernel series with their
// min, median and median CI; service series with their latency
// percentiles, goodput, shed rate and peak queue depth.
func WriteSeriesTable(w io.Writer, rep *Report) {
	fmt.Fprintf(w, "%-48s %4s %10s %10s %23s\n", "kernel series", "n", "min", "median", "95% CI (median)")
	for _, s := range rep.Series {
		if s.Offered != 0 {
			continue
		}
		sum := Summarize(s.SampleNs)
		fmt.Fprintf(w, "%-48s %4d %10s %10s %10s - %-10s\n", s.Key, sum.N,
			fmtNs(sum.MinNs), fmtNs(sum.MedianNs), fmtNs(sum.CILoNs), fmtNs(sum.CIHiNs))
	}
	fmt.Fprintf(w, "\n%-48s %4s %10s %10s %10s %9s %6s %6s\n",
		"service series", "n", "p50", "p99", "p999", "goodput", "shed", "depth")
	for _, s := range rep.Series {
		if s.Offered == 0 {
			continue
		}
		fmt.Fprintf(w, "%-48s %4d %10s %10s %10s %9.1f %5.1f%% %6d\n", s.Key, len(s.SampleNs),
			fmtNs(stats.PercentileNs(s.SampleNs, 0.50)),
			fmtNs(stats.PercentileNs(s.SampleNs, 0.99)),
			fmtNs(stats.PercentileNs(s.SampleNs, 0.999)),
			s.Goodput, 100*s.ShedRate, s.QueueDepth)
	}
}

func fmtNs(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

func toFloat(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v)
	}
	return out
}
