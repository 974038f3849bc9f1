// Package models presents the six threading-model configurations the
// reproduced paper benchmarks behind one interface, so every kernel
// and application in this repository is written once and executed
// under each model:
//
//	omp_for    — fork-join work-sharing loops (OpenMP parallel for)
//	omp_task   — explicit tasks over lock-based deques (OpenMP task)
//	cilk_for   — divide-and-conquer loops over work stealing (cilk_for)
//	cilk_spawn — spawn/sync over lock-free work stealing (cilk_spawn)
//	cpp_thread — manual chunking, a fresh thread per chunk (std::thread)
//	cpp_async  — futures, one async task per chunk (std::async)
//
// The models differ only in scheduling policy and runtime machinery;
// the numeric work performed for a given kernel is identical, which is
// the property that makes cross-model timing comparisons meaningful.
package models

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"threading/internal/forkjoin"
	"threading/internal/sched"
	"threading/internal/shard"
	"threading/internal/tracez"
	"threading/internal/worksteal"
)

// ErrTasksUnsupported is returned (wrapped with the model's name) by
// TaskRunCtx on pure loop models — omp_for, cilk_for and the sharded
// forms — which cannot express recursive task parallelism. Test with
// errors.Is.
var ErrTasksUnsupported = errors.New("model does not support task parallelism")

// Model is one threading-model configuration. Implementations are
// safe for repeated use but not for concurrent calls; Close releases
// any persistent workers.
//
// Every blocking operation takes a context: cancellation is observed
// at chunk/task boundaries through the shared sched.Region flag, so
// every model pays the same one-atomic-load cost and cross-model
// timings remain comparable, and the region's first failure comes
// back as an error. Callers that cannot fail (the benchmark kernels)
// wrap the call in Must.
type Model interface {
	// Name returns the model's identifier, e.g. "omp_for".
	Name() string
	// Threads returns the degree of parallelism the model was created
	// with.
	Threads() int
	// ParallelForCtx partitions [0, n) across the model's threads and
	// invokes body on disjoint chunks covering the range; it returns
	// after every chunk completes. Once ctx is done, unstarted chunks
	// are skipped, in-flight chunks drain, and the context's error is
	// returned. A panic in body cancels the loop and is returned as a
	// *sched.PanicError. The model remains usable after a canceled or
	// failed loop.
	ParallelForCtx(ctx context.Context, n int, body func(lo, hi int)) error
	// ParallelReduceCtx folds [0, n) into a float64: body folds one
	// chunk starting from acc, combine merges per-thread partials.
	// combine must be associative and commutative. On failure it
	// returns identity together with the region's first error; the
	// partial sums of a canceled reduction are never observable.
	ParallelReduceCtx(ctx context.Context, n int, identity float64,
		body func(lo, hi int, acc float64) float64,
		combine func(a, b float64) float64) (float64, error)
	// TaskRunCtx executes root as a task that may recursively Spawn
	// and Sync children. Once ctx is done, further Spawns are dropped
	// and the context's error is returned; a task panic is returned
	// as a *sched.PanicError. Loop-only models (omp_for, cilk_for and
	// every sharded form) cannot express recursive task parallelism —
	// the paper's Fibonacci experiment runs only the task-capable
	// configurations — and return ErrTasksUnsupported wrapped with
	// the model's name.
	TaskRunCtx(ctx context.Context, root func(TaskScope)) error
	// SchedulerStats returns scheduler counters when the model's
	// runtime collects them (the pooled runtimes do; the raw
	// thread-per-chunk models do not). The counters are cumulative;
	// bracket a measurement with two snapshots and sched.Snapshot.Delta.
	SchedulerStats() (sched.Snapshot, bool)
	// Close releases persistent workers. The model must not be used
	// afterwards.
	Close()
}

// TaskScope lets a task spawn and join children, independent of the
// underlying runtime. Spawn and Sync must only be called by the task
// that owns the scope.
type TaskScope interface {
	// Spawn schedules fn as a child task; fn receives its own scope.
	Spawn(fn func(TaskScope))
	// Sync blocks until all children spawned through this scope have
	// completed.
	Sync()
}

// Model names, as used by the benchmark harness and CLI tools.
const (
	OMPFor    = "omp_for"
	OMPTask   = "omp_task"
	CilkFor   = "cilk_for"
	CilkSpawn = "cilk_spawn"
	CPPThread = "cpp_thread"
	CPPAsync  = "cpp_async"
)

// Option configures optional, model-independent construction knobs.
// Models that a knob does not apply to simply ignore it, so a harness
// can pass the same options to every model name uniformly. Option is
// an interface (rather than a bare func type) so the root threading
// package can define combined option values that satisfy several
// layers' option types at once.
type Option interface{ applyModel(*config) }

type optionFunc func(*config)

func (f optionFunc) applyModel(c *config) { f(c) }

// config collects the resolved Option values.
type config struct {
	partitioner worksteal.Partitioner
	grain       int
	tracer      *tracez.Tracer
	shards      int
	balancer    string
	pinned      bool
}

func resolve(opts []Option) config {
	var cfg config
	for _, o := range opts {
		o.applyModel(&cfg)
	}
	return cfg
}

// WithPartitioner selects the loop partitioner used by the
// work-stealing models (cilk_for, cilk_spawn). The zero value is
// worksteal.Eager, the paper-faithful divide-and-conquer
// decomposition; worksteal.Lazy enables demand-driven splitting. The
// other four models ignore this option.
func WithPartitioner(p worksteal.Partitioner) Option {
	return optionFunc(func(c *config) { c.partitioner = p })
}

// WithGrain fixes the cilk_for loop grain (the smallest chunk the
// divide-and-conquer decomposition produces). The zero value keeps
// the default heuristic min(2048, ceil(n/8p)); small fixed grains
// stress the distribution machinery, which is what the benchmark
// gate's work-stealing series measure. It reaches cilk_for and the
// sharded forms over pools; models without a grain knob — every
// team-backed one, plain or sharded, included — ignore it.
func WithGrain(g int) Option {
	return optionFunc(func(c *config) { c.grain = g })
}

// WithTracer attaches a scheduler-event tracer to the model's runtime:
// the pooled runtimes record per-worker events, the thread-per-chunk
// models record one ring per chunk index plus an overflow ring for
// recursive tasks. A nil tracer (the zero value) disables tracing, and
// the runtimes' hot paths then pay only a nil check.
func WithTracer(tr *tracez.Tracer) Option {
	return optionFunc(func(c *config) { c.tracer = tr })
}

// WithShardCount splits a pooled model's runtime into n shards routed
// by a shard.Resolver: n independent pools (cilk_for, cilk_spawn) or
// teams (omp_for, omp_task) splitting the model's thread budget, so
// each steal domain is bounded to one shard's workers. n = 0 (the
// zero value) disables sharding; n < 0 selects one shard per
// GOMAXPROCS processor; n > the thread count is clamped. The
// thread-per-chunk models (cpp_*) ignore this option, so a harness
// can pass it uniformly.
func WithShardCount(n int) Option {
	return optionFunc(func(c *config) { c.shards = n })
}

// WithShardBalancer selects the balancer of a sharded model's
// resolver by name: "round-robin" (the default), "random",
// "least-loaded", or "affinity". Ignored unless sharding is enabled.
func WithShardBalancer(name string) Option {
	return optionFunc(func(c *config) { c.balancer = name })
}

// WithPinnedWorkers locks the pooled runtimes' worker goroutines to
// OS threads (runtime.LockOSThread) for the life of the model: pool
// workers for cilk_for/cilk_spawn, members 1..n-1 for
// omp_for/omp_task (member 0 is the caller's goroutine), and every
// shard's workers for the sharded forms. The thread-per-chunk models
// (cpp_*) ignore this option — their threads are born and die with
// each chunk, so there is nothing durable to pin.
func WithPinnedWorkers(on bool) Option {
	return optionFunc(func(c *config) { c.pinned = on })
}

// Names returns all model names in a stable (sorted) order.
func Names() []string {
	return []string{CilkFor, CilkSpawn, CPPAsync, CPPThread, OMPFor, OMPTask}
}

// DataNames returns the models used in the paper's data-parallel
// experiments, in presentation order.
func DataNames() []string {
	return []string{OMPFor, OMPTask, CilkFor, CilkSpawn, CPPThread, CPPAsync}
}

// TaskNames returns the task-capable models, in presentation order.
func TaskNames() []string {
	return []string{OMPTask, CilkSpawn, CPPThread, CPPAsync}
}

// New constructs the named model with the given thread count and
// options: NewExecutor builds the runtime, and New puts the model's
// name and loop/task form on top of it. A "sharded:" name prefix
// (e.g. "sharded:cilk_for"), or WithShardCount on a shardable base
// name, yields the loop model over the routing shard.Resolver (see
// Resolver); the base model's thread budget is split across
// family-native shards and every loop takes the shard runtime's own
// form, so per-chunk mechanics match the base model's family while
// distribution across shards is the resolver's.
func New(name string, threads int, opts ...Option) (Model, error) {
	cfg := resolve(opts)
	ex, err := newExecutor(name, threads, cfg)
	if err != nil {
		return nil, err
	}
	switch rt := ex.(type) {
	case *forkjoin.Team:
		return OverTeam(name, rt)
	case *worksteal.Pool:
		return OverPool(name, rt, cfg.grain)
	case *shard.Resolver:
		base := strings.TrimPrefix(name, ShardedPrefix)
		m := &loopModel{ex: rt, name: ShardedPrefix + base, threads: threads}
		if base == CilkFor || base == CilkSpawn {
			m.grain = cfg.grain // pool shards; team shards have no grain knob
		}
		return m, nil
	case *chunkExecutor:
		return rt.m, nil
	}
	panic(fmt.Sprintf("models: NewExecutor(%q) returned unexpected %T", name, ex))
}

// OverTeam returns the named fork-join model (omp_for or omp_task)
// over a caller-built team — the injection point for ablations that
// need a forkjoin.Option New does not expose (barrier kind, task
// policy, task deque). The model owns the team: Close closes it.
func OverTeam(name string, team *forkjoin.Team) (Model, error) {
	switch name {
	case OMPFor:
		return &loopModel{ex: team, name: name, threads: team.Size()}, nil
	case OMPTask:
		return &ompTask{team: team, n: team.Size()}, nil
	}
	return nil, fmt.Errorf("models: %q is not a fork-join model (have %s, %s)", name, OMPFor, OMPTask)
}

// OverPool returns the named work-stealing model (cilk_for or
// cilk_spawn) over a caller-built pool — the injection point for
// ablations that need a worksteal.Option New does not expose (deque
// kind). grain is the cilk_for loop grain, 0 selecting the default
// heuristic; cilk_spawn chunks manually and ignores it. The model
// owns the pool: Close closes it.
func OverPool(name string, pool *worksteal.Pool, grain int) (Model, error) {
	switch name {
	case CilkFor:
		return &loopModel{ex: pool, name: name, threads: pool.Workers(), grain: grain}, nil
	case CilkSpawn:
		return &cilkSpawn{pool: pool, n: pool.Workers()}, nil
	}
	return nil, fmt.Errorf("models: %q is not a work-stealing model (have %s, %s)", name, CilkFor, CilkSpawn)
}

// MustNew is New, panicking on error. For tests and benchmarks.
func MustNew(name string, threads int, opts ...Option) Model {
	m, err := New(name, threads, opts...)
	Must(err)
	return m
}

// Must panics if err is non-nil. It is how code whose signature has
// no error result — the benchmark kernels, which run each timed
// repetition to completion under context.Background — calls the Ctx
// methods: models.Must(m.ParallelForCtx(ctx, n, body)).
func Must(err error) {
	if err != nil {
		panic(err)
	}
}

// guarded wraps fn for execution on a raw thread or async task under
// reg: the body is skipped once the region is canceled, and a panic
// is recorded into the region instead of crossing the thread
// boundary — the same per-chunk guard the pooled runtimes apply
// internally, so all six models share cancellation semantics.
func guarded(reg *sched.Region, fn func()) func() {
	return func() {
		if reg.Canceled() {
			return
		}
		defer func() {
			if r := recover(); r != nil {
				reg.RecordPanic(r)
			}
		}()
		fn()
	}
}

// chunkFor returns the manual-chunking bounds of chunk i of k over n
// iterations: contiguous blocks whose sizes differ by at most one —
// BASE = N/threads in the paper's C++ versions.
func chunkFor(n, k, i int) (lo, hi int) {
	base := n / k
	rem := n % k
	lo = i*base + min(i, rem)
	size := base
	if i < rem {
		size++
	}
	return lo, lo + size
}
