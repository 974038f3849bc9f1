package benchgate

import (
	"fmt"
	"io"

	"threading/internal/models"
	"threading/internal/stats"
	"threading/internal/worksteal"
)

// The gate's fixed parameters.
const (
	// grain is the distribution-stressing loop grain of the
	// work-stealing kernel series: n/64 chunks per loop.
	grain = 64
	// minRatio is the default effect bound: a claimed-faster series
	// violates its claim only when it is slower by at least this
	// factor on both min and median. Loose, so that a shared machine's
	// noise cannot flap the gate; only an inversion of kind fails it.
	minRatio = 1.3
	// timingAlpha and tailAlpha are the Mann-Whitney significance
	// levels for whole-run timing claims and for per-request
	// percentile claims. The percentile claims have hundreds of
	// samples per side, so the stricter level still resolves a real
	// shift while keeping percentile noise from flapping the gate.
	timingAlpha = 0.05
	tailAlpha   = 0.01
	// shardOverheadRatio bounds the cost of splitting one pool into
	// shards: the sharded runtime may be at most 10% slower than its
	// single-pool twin on the flat loops.
	shardOverheadRatio = 1.1
	// pinOverheadRatio bounds the cost of locking workers to OS
	// threads: with GOMAXPROCS matched to the worker count,
	// LockOSThread should be nearly free; the bound catches a runtime
	// change that makes pinning fight the Go scheduler.
	pinOverheadRatio = 1.05
	// tailParityRatio bounds cross-runtime p99 at low offered load,
	// where tail latency is the kernel plus per-request scheduling
	// overhead: no runtime may tail more than 3x beyond another. Loose
	// by design — it flags a runtime that queues or serialises where
	// the others do not, not percentage-level noise.
	tailParityRatio = 3.0
	// serveOffered is the low offered load (requests per second) the
	// parity claims are defined at: far from saturation, so the tails
	// measure the runtimes, not the load.
	serveOffered = 200
)

// Invariant is one claim as a machine-checked assertion between two
// series of one report: the Fast series must not be slower than the
// Slow one beyond the bound.
type Invariant struct {
	// Name identifies the invariant, e.g. "sum-sharing-beats-stealing".
	Name string
	// Claim states the finding the invariant encodes.
	Claim string
	Fast  Key
	Slow  Key
	// Ratio, when positive, is the bound: fast <= Ratio * slow. Zero
	// selects minRatio. Bounded-overhead claims ("sharding costs at
	// most 10%") carry their own tight bound here.
	Ratio float64
	// Metric selects the compared statistic. Empty gates on the min and
	// median of whole-run repetition timings; "p50", "p99" or "p999"
	// gate on that percentile of per-request latency samples.
	Metric string
}

// Invariants returns the gated claims at the given thread count: for
// each flat loop (Axpy, Sum) the two paper orderings and the pinning
// and sharding bounds, the Fig. 5 spawn ordering on fib, and low-load
// p99 parity between omp_for and the other two service runtimes.
func Invariants(threads int) []Invariant {
	var out []Invariant
	for _, kernel := range []string{"axpy", "sum"} {
		out = append(out, loopInvariants(kernel, threads)...)
	}
	out = append(out, fibInvariant(threads))
	return append(out, latencyInvariants(threads)...)
}

// loopInvariants returns the claims about one flat loop, all against
// eager cilk_for at stress grain: omp_for and lazy cilk_for are not
// slower (paper Figs. 1-2; adaptive distribution), and the pinned and
// the sharded (GOMAXPROCS shards, least-loaded routing) forms of the
// same runtime cost at most their overhead bounds.
func loopInvariants(kernel string, threads int) []Invariant {
	eager := Key{Kernel: kernel, Model: models.CilkFor, Threads: threads,
		Grain: grain, Partitioner: worksteal.Eager.String()}
	lazy := eager
	lazy.Partitioner = worksteal.Lazy.String()
	pinned := eager
	pinned.Pinned = true
	sharded := eager
	sharded.Model = models.ShardedPrefix + models.CilkFor
	sharded.Shards = threads
	sharded.Balancer = "least-loaded"
	return []Invariant{
		{
			Name:  kernel + "-sharing-beats-stealing",
			Claim: fmt.Sprintf("omp_for <= eager cilk_for on flat %s at grain %d (paper Figs. 1-2)", kernel, grain),
			Fast:  Key{Kernel: kernel, Model: models.OMPFor, Threads: threads, Partitioner: "-"},
			Slow:  eager,
		},
		{
			Name:  kernel + "-lazy-beats-eager",
			Claim: fmt.Sprintf("lazy cilk_for <= eager cilk_for on flat %s at grain %d (adaptive distribution)", kernel, grain),
			Fast:  lazy,
			Slow:  eager,
		},
		{
			Name: kernel + "-pinning-overhead",
			Claim: fmt.Sprintf("pinned eager cilk_for <= %.2fx unpinned on flat %s at grain %d",
				pinOverheadRatio, kernel, grain),
			Fast:  pinned,
			Slow:  eager,
			Ratio: pinOverheadRatio,
		},
		{
			Name: kernel + "-sharding-overhead",
			Claim: fmt.Sprintf("sharded cilk_for (%d shards, least-loaded) <= %.1fx single-pool eager cilk_for on flat %s at grain %d",
				threads, shardOverheadRatio, kernel, grain),
			Fast:  sharded,
			Slow:  eager,
			Ratio: shardOverheadRatio,
		},
	}
}

// fibInvariant is the spawn-heavy ordering claim of the paper's
// Fig. 5: cilk_spawn (lock-free Chase-Lev deques, arena-recycled task
// records) is not slower than omp task (locked team deques) on uncut
// recursive Fibonacci.
func fibInvariant(threads int) Invariant {
	return Invariant{
		Name:  "fib-spawn-beats-omp-task",
		Claim: "cilk_spawn <= omp_task on uncut recursive fib (paper Fig. 5: lock-based deques contend)",
		Fast:  Key{Kernel: "fib", Model: models.CilkSpawn, Threads: threads, Partitioner: worksteal.Eager.String()},
		Slow:  Key{Kernel: "fib", Model: models.OMPTask, Threads: threads, Partitioner: "-"},
	}
}

// latencyInvariants returns the low-load p99 parity claims between
// the reference service runtime (omp_for) and each of cilk_for and
// cpp_async, in both directions since parity is symmetric.
func latencyInvariants(threads int) []Invariant {
	key := func(model string) Key {
		return Key{Kernel: "sum", Model: model, Threads: threads, Partitioner: "-", Offered: serveOffered}
	}
	const ref = models.OMPFor
	claim := fmt.Sprintf("low-load p99 parity at %d rps: %%s <= %.1fx %%s", serveOffered, tailParityRatio)
	var out []Invariant
	for _, m := range []string{models.CilkFor, models.CPPAsync} {
		out = append(out,
			Invariant{
				Name:   "serve-p99-parity-" + m,
				Claim:  fmt.Sprintf(claim, m, ref),
				Fast:   key(m),
				Slow:   key(ref),
				Ratio:  tailParityRatio,
				Metric: "p99",
			},
			Invariant{
				Name:   "serve-p99-parity-" + ref + "-vs-" + m,
				Claim:  fmt.Sprintf(claim, ref, m),
				Fast:   key(ref),
				Slow:   key(m),
				Ratio:  tailParityRatio,
				Metric: "p99",
			})
	}
	return out
}

// Keys returns every series the invariants read, once each, in first
// use order — exactly what a gate run must measure.
func Keys(invs []Invariant) []Key {
	seen := make(map[Key]bool)
	var out []Key
	for _, inv := range invs {
		for _, k := range []Key{inv.Fast, inv.Slow} {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	return out
}

// InvariantResult is the checked outcome of one invariant.
type InvariantResult struct {
	Invariant
	// Holds is false only for a statistically significant inversion
	// beyond the bound.
	Holds bool
	// P is the U-test p-value for fast-vs-slow samples.
	P float64
	// MinRatio and MedianRatio are fast/slow; > 1 means the claimed
	// faster side measured slower. A percentile claim sets both to the
	// ratio of its percentile.
	MinRatio    float64
	MedianRatio float64
}

// CheckInvariants evaluates each invariant against the report. It
// fails — rather than skipping the claim — when a series an invariant
// reads is missing or names an unknown metric: nothing passes by not
// being measured.
func CheckInvariants(rep *Report, invs []Invariant) ([]InvariantResult, error) {
	out := make([]InvariantResult, 0, len(invs))
	for _, inv := range invs {
		fast, slow := rep.Find(inv.Fast), rep.Find(inv.Slow)
		if fast == nil || slow == nil {
			return nil, fmt.Errorf("benchgate: invariant %s: series missing (fast %s: %t, slow %s: %t)",
				inv.Name, inv.Fast, fast != nil, inv.Slow, slow != nil)
		}
		r, err := classify(inv, fast.SampleNs, slow.SampleNs)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// classify applies the verdict rule to one invariant's samples. The
// claim is violated only when the U test rejects equality AND the
// claimed-faster side is slower by at least the bound — on both min
// and median for a timing claim, on the named percentile for a tail
// claim. The two conditions keep single-run noise (which can reach
// significance on micro-kernels) and single-sample tail blips from
// flipping a verdict without a material, distribution-wide effect.
func classify(inv Invariant, fast, slow []int64) (InvariantResult, error) {
	res := InvariantResult{Invariant: inv, Holds: true}
	res.P = stats.MannWhitneyU(toFloat(fast), toFloat(slow)).P
	bound := minRatio
	if inv.Ratio > 0 {
		bound = inv.Ratio
	}
	if inv.Metric == "" {
		fs, ss := Summarize(fast), Summarize(slow)
		res.MinRatio = ratio(fs.MinNs, ss.MinNs)
		res.MedianRatio = ratio(fs.MedianNs, ss.MedianNs)
		res.Holds = !(res.P < timingAlpha && res.MinRatio >= bound && res.MedianRatio >= bound)
		return res, nil
	}
	q, ok := metricQuantile(inv.Metric)
	if !ok {
		return res, fmt.Errorf("benchgate: invariant %s: unknown metric %q (have p50, p99, p999)", inv.Name, inv.Metric)
	}
	r := ratio(stats.PercentileNs(fast, q), stats.PercentileNs(slow, q))
	res.MinRatio, res.MedianRatio = r, r
	res.Holds = !(res.P < tailAlpha && r >= bound)
	return res, nil
}

// metricQuantile maps an Invariant.Metric spelling to its quantile.
func metricQuantile(m string) (float64, bool) {
	switch m {
	case "p50":
		return 0.50, true
	case "p99":
		return 0.99, true
	case "p999":
		return 0.999, true
	}
	return 0, false
}

func ratio(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// AnyViolated reports whether any invariant failed.
func AnyViolated(rs []InvariantResult) bool {
	for _, r := range rs {
		if !r.Holds {
			return true
		}
	}
	return false
}

// WriteInvariantTable renders invariant results, one line each with
// the measured fast/slow ratios (min and median; a percentile claim
// shows its percentile ratio twice) against the bound and the U-test
// p-value.
func WriteInvariantTable(w io.Writer, rs []InvariantResult) {
	fmt.Fprintf(w, "%-36s %-8s %-6s %7s %7s %7s %8s  %s\n",
		"invariant", "status", "metric", "ratio", "median", "bound", "p", "claim")
	for _, r := range rs {
		status := "ok"
		if !r.Holds {
			status = "VIOLATED"
		}
		metric, bound := "min", minRatio
		if r.Metric != "" {
			metric = r.Metric
		}
		if r.Ratio > 0 {
			bound = r.Ratio
		}
		fmt.Fprintf(w, "%-36s %-8s %-6s %7.3f %7.3f %7.2f %8.4f  %s\n",
			r.Name, status, metric, r.MinRatio, r.MedianRatio, bound, r.P, r.Claim)
	}
}
