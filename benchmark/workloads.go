package main

import (
	"fmt"
	"time"
)

// family is one of the paper's three scheduler families. Each is
// measured through the loop runtime on the loops and serve workloads
// and through the task runtime on the tasks workload.
type family struct {
	name string // series suffix: share, steal, thread
	loop string // model name behind the Executor surface
	task string // model name behind TaskRunCtx
}

var families = [...]family{
	{"share", "omp_for", "omp_task"},      // work-sharing team
	{"steal", "cilk_for", "cilk_spawn"},   // work-stealing pool (eager partitioner, the paper-faithful default)
	{"thread", "cpp_thread", "cpp_async"}, // a fresh thread / async task per chunk
}

// Frozen constants. They were sized once on the box of record (see
// README.md, "Frozen constants") and are never derived at run time: a
// faster program must not be offered more load or bigger inputs.
const (
	// Measured rounds per run; family order rotates each round. A
	// multiple of 3, so every family runs in every position equally
	// often, and enough of them that a slice is about half a second:
	// short enough to drop the ones a neighbour's burst disturbed.
	rounds       = 12
	setupRepeats = 5 // set-ups per run; setup_s is the median of the calm ones

	coarseN     = 1 << 20 // loops-coarse: 8 MiB per float64 array
	coarseGrain = 0       // the runtime's default chunking
	fineN       = 1 << 18 // loops-fine
	fineGrain   = 64      // 4096 chunks per region
	// Discarded ops per family at set-up; more on the cheaper workload so
	// both set-ups are long enough to time.
	coarseWarmOps = 60
	fineWarmOps   = 200

	fibN        = 27
	fibCutoff   = 19 // subtrees at or below run sequentially: 55 leaf tasks
	sortN       = 1 << 15
	sortCutoff  = 1 << 11 // 16 leaf sorts, 15 merges
	taskWarmOps = 40

	serveWorkSize = 1 << 17
	// More than the arrivals of one slice (720 +- 27 at the heavy rate),
	// and a slice drains before the next starts: a stalled host makes
	// requests late, never shed.
	serveQueue    = 1024
	serveWarmReqs = 150 // discarded requests per family at set-up
	// Offered rates, requests per second, on either side of the knee of
	// the slowest family (share): its closed-loop capacity with
	// 2 x nproc callers is 2000-2750/s, its open-loop p50 is flat to
	// ~1000/s and 1.4-2.3x the unloaded one at 1300/s. At the light rate
	// a server has a request outstanding 20 % of the time, at the heavy
	// one 56-69 % (op.busy_share).
	serveLightRPS = 350.0
	serveHeavyRPS = 1300.0
	// Latency limit of both serve workloads: ~5x the unloaded p50 of
	// the slowest family. A 200 slower than this is not goodput.
	serveLimit = 2500 * time.Microsecond
)

// opKind is one kind of operation in a workload's mix.
type opKind struct {
	name  string
	share float64 // fraction of operations; sums to 1 over a workload
}

// series is one family's instance of a workload: a runtime or server
// plus the inputs and references its operations need.
type series interface {
	// warm runs a fixed number of discarded operations, so lazy set-up
	// and cache fill happen before timing and a slower program shows
	// in setup_s.
	warm() error
	// run measures one slice of about d. roundSeed is shared by the
	// three families of a round so they see the same schedule and
	// request draw. With a non-nil log every operation records spans.
	run(d time.Duration, roundSeed uint64, log *spanLog) roundSamples
	// counts reads the runtime's cumulative scheduler counters; false
	// when the series has none to read.
	counts() (counts, bool)
	close()
}

// instance is one set-up of a workload: the three family series in
// families order, and the sequential time of each operation kind.
type instance struct {
	series [len(families)]series
	// seqUS is the sequential reference time per operation kind, in
	// microseconds: the loop or tree body on the calling goroutine,
	// or the request's own `ns` on a 1-thread server.
	seqUS []float64
}

func (in *instance) close() {
	for _, s := range in.series {
		if s != nil {
			s.close()
		}
	}
}

// workload is one named traffic mix.
type workload struct {
	name  string
	kinds []opKind
	rate  float64 // open loop: arrivals per second; 0 for a closed loop with one caller
	build func(seed uint64, threads int) (*instance, error)
}

// Operation mixes. Closed loops alternate their kinds strictly; the
// serve workloads draw a kind per arrival from the seed: 80 % small
// /run requests, 15 % pathfinder (8 regions each), 5 % fan-out.
var (
	loopKinds  = []opKind{{"sum", 0.5}, {"axpy", 0.5}}
	taskKinds  = []opKind{{"fib", 0.5}, {"mergesort", 0.5}}
	serveKinds = []opKind{
		{"sum", 0.8 / 3}, {"axpy", 0.8 / 3}, {"matvec", 0.8 / 3},
		{"pathfinder", 0.15}, {"fanout", 0.05},
	}
)

var workloads = []workload{
	{
		name:  "loops-coarse",
		kinds: loopKinds,
		build: func(seed uint64, threads int) (*instance, error) {
			return buildLoops(seed, threads, coarseN, coarseGrain, coarseWarmOps)
		},
	},
	{
		name:  "loops-fine",
		kinds: loopKinds,
		build: func(seed uint64, threads int) (*instance, error) {
			return buildLoops(seed, threads, fineN, fineGrain, fineWarmOps)
		},
	},
	{
		name:  "tasks",
		kinds: taskKinds,
		build: buildTasks,
	},
	serveWorkload("serve-light", serveLightRPS),
	serveWorkload("serve-heavy", serveHeavyRPS),
}

func serveWorkload(name string, rate float64) workload {
	return workload{name: name, kinds: serveKinds, rate: rate,
		build: func(_ uint64, threads int) (*instance, error) {
			return buildServe(threads, rate, serveQueue, false)
		}}
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// roundSamples is what one family produced in one measured slice.
type roundSamples struct {
	byKind    [][]float64 // operation times per kind, microseconds
	attempted int
	failed    int           // errors, non-200s and wrong results
	good      int           // correct and, on the serve workloads, inside the limit
	busy      time.Duration // time with an operation outstanding: closed loop, the sum of operation times
	wall      time.Duration // open loop: first due instant to last completion
	lateUS    []float64     // open loop: how late each arrival was fired
	envUS     []float64     // serve: client latency minus the response's own ns
	sched     counts        // scheduler counter deltas over the slice
	hasSched  bool
	host      hostTimes // steal, process CPU and wall time of the slice, filled by measureRounds
	errs      []string  // first few failure descriptions
}

func (r *roundSamples) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 4 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// rng is splitmix64: small, seedable, and the same on every platform.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// unit returns a uniform float64 in [0, 1).
func (r *rng) unit() float64 { return float64(r.next()>>11) / (1 << 53) }
