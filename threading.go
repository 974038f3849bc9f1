// Package threading is a study of threading programming models in Go,
// reproducing "Comparison of Threading Programming Models" (Salehian,
// Liu, Yan; 2017). It provides, from scratch and over goroutines:
//
//   - a fork-join work-sharing runtime in the style of OpenMP
//     (persistent teams, static/dynamic/guided loop schedules,
//     barriers, critical/single/master, explicit tasks with taskwait);
//   - a Cilk-style work-stealing runtime (spawn/sync over lock-free
//     Chase-Lev deques, divide-and-conquer loops, reducers), with a
//     lock-based deque backend modelling the Intel OpenMP task
//     runtime;
//   - a C++11-style layer (Thread/Join, Promise/Future, Async with
//     launch policies);
//   - six benchmark-ready model configurations (omp_for, omp_task,
//     cilk_for, cilk_spawn, cpp_thread, cpp_async) behind one Model
//     interface;
//   - the paper's qualitative feature comparison (Tables I-III) as
//     queryable data; and
//   - a harness that regenerates each of the paper's performance
//     figures (five kernels and five Rodinia applications).
//
// This root package is the stable public surface: it re-exports the
// pieces a downstream user needs. Internal packages hold the
// implementations.
//
// Every blocking operation has a context-aware form (ParallelForCtx,
// TaskRunCtx, Pool.RunCtx, Future.GetCtx, Device.TargetCtx, ...) with
// cooperative cancellation at chunk/task boundaries, deadline support,
// and structured first-error propagation: a panic inside a parallel
// region surfaces as a *threading.PanicError wrapping the recovered
// value and the panicking goroutine's stack. Runtimes are configured
// with functional options only (WithSchedule, WithStealBackend,
// WithUnits, ...), and the three options that apply to more than one
// runtime — WithTracer, WithPinnedWorkers, WithPartitioner — have one
// spelling accepted by every constructor they apply to.
//
// Quick start:
//
//	m, err := threading.NewModel(threading.OMPFor, runtime.GOMAXPROCS(0))
//	if err != nil { ... }
//	defer m.Close()
//	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
//	defer cancel()
//	if err := m.ParallelForCtx(ctx, len(data), func(lo, hi int) {
//		for i := lo; i < hi; i++ { data[i] *= 2 }
//	}); err != nil {
//		var pe *threading.PanicError
//		switch {
//		case errors.As(err, &pe): // a chunk panicked; pe.Stack has the trace
//		case errors.Is(err, context.DeadlineExceeded): // ran out of time
//		}
//	}
package threading

import (
	"context"
	"io"
	"time"

	"threading/internal/deque"
	"threading/internal/forkjoin"
	"threading/internal/futures"
	"threading/internal/harness"
	"threading/internal/models"
	"threading/internal/offload"
	"threading/internal/pipeline"
	"threading/internal/sched"
	"threading/internal/shard"
	"threading/internal/tracez"
	"threading/internal/workspan"
	"threading/internal/worksteal"
)

// PanicError wraps a panic recovered inside a parallel region, task,
// thread, or kernel: Value is the recovered value, Stack the
// panicking goroutine's stack. The context-aware entry points return
// it instead of re-panicking; test with errors.As.
type PanicError = sched.PanicError

// ErrTasksUnsupported is returned (wrapped with the model's name) by
// TaskRunCtx on the pure loop models — omp_for, cilk_for and every
// sharded form; test with errors.Is.
var ErrTasksUnsupported = models.ErrTasksUnsupported

// ErrBrokenPromise is the error for a promise dropped without a value.
// No operation in this module breaks a promise, so Future.Get does not
// return it.
var ErrBrokenPromise = futures.ErrBrokenPromise

// Model is one threading-model configuration; see internal/models.
type Model = models.Model

// TaskScope is the recursive spawn/join surface of task-capable
// models.
type TaskScope = models.TaskScope

// Model names accepted by NewModel.
const (
	OMPFor    = models.OMPFor
	OMPTask   = models.OMPTask
	CilkFor   = models.CilkFor
	CilkSpawn = models.CilkSpawn
	CPPThread = models.CPPThread
	CPPAsync  = models.CPPAsync
)

// ModelOption configures optional, model-independent construction
// knobs for NewModel; models a knob does not apply to ignore it.
type ModelOption = models.Option

// PartitionerOption is the type of WithPartitioner: a single option
// accepted by both NewModel (as a ModelOption) and NewPool (as a
// PoolOption), so one spelling configures the partitioner everywhere.
type PartitionerOption interface {
	ModelOption
	PoolOption
}

// Tracer collects per-worker scheduler events (task/chunk spans,
// steals, parks, barrier waits) into fixed-capacity ring buffers; see
// internal/tracez. Attach one with WithTracer, then write its
// Snapshot with WriteTrace and inspect the file with cmd/traceview.
type Tracer = tracez.Tracer

// Trace is an immutable snapshot of a Tracer's rings.
type Trace = tracez.Trace

// NewTracer returns a Tracer whose per-worker rings hold capacity
// events each (rounded up to a power of two; <= 0 picks the default).
func NewTracer(capacity int) *Tracer { return tracez.New(capacity) }

// RuntimeOption is the type of WithTracer and WithPinnedWorkers: a
// single option accepted by NewModel, NewPool, and NewTeam, so one
// spelling configures any runtime.
type RuntimeOption interface {
	ModelOption
	PoolOption
	TeamOption
}

// WithTracer records the runtime's scheduler events into tr — the
// canonical tracer option for NewModel, NewPool, and NewTeam. A nil
// tr leaves tracing disabled at zero cost.
func WithTracer(tr *Tracer) RuntimeOption {
	return struct {
		ModelOption
		PoolOption
		TeamOption
	}{models.WithTracer(tr), worksteal.WithTracer(tr), forkjoin.WithTracer(tr)}
}

// WithPinnedWorkers locks the runtime's durable worker goroutines to
// OS threads (runtime.LockOSThread) for the runtime's life: pool
// workers for the work-stealing runtimes, members 1..n-1 for fork-join
// teams (member 0 is the caller's goroutine and is never pinned by the
// team), and every shard's workers for the sharded model forms. Models
// without durable workers (cpp_thread, cpp_async) ignore it.
func WithPinnedWorkers(on bool) RuntimeOption {
	return struct {
		ModelOption
		PoolOption
		TeamOption
	}{models.WithPinnedWorkers(on), worksteal.WithPinnedWorkers(on), forkjoin.WithPinnedWorkers(on)}
}

// WriteTrace serializes a trace snapshot to path in the raw JSON
// format cmd/traceview consumes.
func WriteTrace(path string, tr *Trace) error { return tracez.WriteFile(path, tr) }

// NewModel constructs a threading model by name with the given degree
// of parallelism.
func NewModel(name string, threads int, opts ...ModelOption) (Model, error) {
	return models.New(name, threads, opts...)
}

// ModelNames returns all model names (sorted).
func ModelNames() []string { return models.Names() }

// Team is the OpenMP-style fork-join runtime; construct with NewTeam.
type Team = forkjoin.Team

// TeamCtx is a member's handle inside a parallel region.
type TeamCtx = forkjoin.Ctx

// TeamOption configures a Team at construction.
type TeamOption = forkjoin.Option

// TaskPolicy selects when a Team's explicit task bodies run.
type TaskPolicy = forkjoin.TaskPolicy

// Task policies for WithTaskPolicy.
const (
	TaskDeferred  = forkjoin.TaskDeferred
	TaskImmediate = forkjoin.TaskImmediate
)

// NewTeam creates a fork-join team of n members.
func NewTeam(n int, options ...TeamOption) *Team { return forkjoin.NewTeam(n, options...) }

// WithSchedule sets a team's default work-sharing schedule.
func WithSchedule(s Schedule) TeamOption { return forkjoin.WithSchedule(s) }

// WithCentralBarrier selects the lock-based central barrier (ablation
// against the default sense-reversing barrier).
func WithCentralBarrier() TeamOption { return forkjoin.WithCentralBarrier() }

// WithLockFreeTasks backs a team's explicit tasks with lock-free
// Chase-Lev deques instead of the default lock-based deques.
func WithLockFreeTasks() TeamOption { return forkjoin.WithLockFreeTasks() }

// WithTaskPolicy selects deferred or immediate task execution.
func WithTaskPolicy(p TaskPolicy) TeamOption { return forkjoin.WithTaskPolicy(p) }

// Schedule is a work-sharing loop schedule for Team loops.
type Schedule = forkjoin.Schedule

// Work-sharing loop schedules for Team loops.
var (
	// Static is the default OpenMP-style static schedule.
	Static = forkjoin.Static
)

// Dynamic returns a dynamic work-sharing schedule with the given
// chunk size. It is nonmonotonic: each member starts on its own
// contiguous block, and idle members steal half of a busy member's
// remaining chunks; chunk order across members is unspecified, as
// OpenMP 5.0 allows.
func Dynamic(chunk int) forkjoin.Schedule { return forkjoin.Dynamic(chunk) }

// Guided returns a guided work-sharing schedule with the given
// minimum chunk size.
func Guided(chunk int) forkjoin.Schedule { return forkjoin.Guided(chunk) }

// Pool is the Cilk-style work-stealing runtime; construct with
// NewPool.
type Pool = worksteal.Pool

// PoolCtx is a task's handle inside the work-stealing scheduler.
type PoolCtx = worksteal.Ctx

// PoolOption configures a Pool at construction.
type PoolOption = worksteal.Option

// DequeKind selects a work-stealing deque implementation for
// WithStealBackend.
type DequeKind = deque.Kind

// Deque kinds for WithStealBackend.
const (
	DequeChaseLev = deque.KindChaseLev
	DequeLocked   = deque.KindLocked
)

// NewPool creates a work-stealing pool of n workers.
func NewPool(n int, options ...PoolOption) *Pool { return worksteal.NewPool(n, options...) }

// WithStealBackend selects the deque implementation workers steal
// from — lock-free Chase-Lev (the Cilk Plus model) or lock-based (the
// Intel OpenMP task runtime model).
func WithStealBackend(k DequeKind) PoolOption { return worksteal.WithDequeKind(k) }

// Partitioner selects how a Pool's ForDAC loops are decomposed.
type Partitioner = worksteal.Partitioner

// Partitioners for WithPartitioner.
const (
	// PartitionEager recursively halves the iteration space into
	// spawned tasks up front (cilk_for; paper-faithful).
	PartitionEager = worksteal.Eager
	// PartitionLazy splits on demand: a worker forks off half its
	// remaining range only when another worker is hungry.
	PartitionLazy = worksteal.Lazy
)

// WithPartitioner selects how loops are decomposed — the canonical
// partitioner option, accepted by NewModel (work-stealing models) and
// NewPool alike: PartitionEager is the paper-faithful
// divide-and-conquer decomposition, PartitionLazy demand-driven
// splitting.
func WithPartitioner(p Partitioner) PartitionerOption {
	return struct {
		ModelOption
		PoolOption
	}{models.WithPartitioner(p), worksteal.WithPartitioner(p)}
}

// Executor is the uniform submission surface implemented by *Team,
// *Pool, and *Resolver: context-aware parallel loops, chunked
// reductions, detached submissions, and quiesce/close. It is the
// stable abstraction to write against when code must run on any of
// the three runtimes; see internal/shard for the full contract.
type Executor = shard.Executor

// Resolver routes parallel loops, reductions, and submissions across
// a mutable set of shards (each itself an Executor) through a
// pluggable balancer. It implements Executor, so a Resolver can stand
// in anywhere a single runtime does — including as a shard of another
// Resolver. Construct with NewResolver.
type Resolver = shard.Resolver

// ResolverOption configures NewResolver.
type ResolverOption = shard.Option

// NewResolver returns a Resolver routing across the shards given via
// WithShards (at least one is required; the Resolver takes ownership
// and closes them). The default balancer is round-robin.
func NewResolver(opts ...ResolverOption) (*Resolver, error) { return shard.New(opts...) }

// WithShards sets a Resolver's initial shard set.
func WithShards(execs ...Executor) ResolverOption { return shard.WithShards(execs...) }

// Balancer picks which shard receives the next unit of work; see
// internal/shard for the concurrency and positional-index contract.
type Balancer = shard.Balancer

// WithBalancer selects a Resolver's routing balancer.
func WithBalancer(b Balancer) ResolverOption { return shard.WithBalancer(b) }

// Balancer constructors for WithBalancer.
func RoundRobin() Balancer  { return shard.RoundRobin() }  // cycle in order
func Random() Balancer      { return shard.Random() }      // uniform lock-free
func LeastLoaded() Balancer { return shard.LeastLoaded() } // min queued work
func Affinity() Balancer    { return shard.Affinity() }    // submitter-sticky

// ParseBalancer converts a flag-style name (round-robin, random,
// least-loaded, affinity; empty selects round-robin) to a Balancer.
func ParseBalancer(s string) (Balancer, error) { return shard.ParseBalancer(s) }

// ShardStat is one shard's scheduler counters, tagged with its id.
type ShardStat = shard.Stat

// ShardedPrefix is the model-name prefix selecting sharded execution
// from NewModel, e.g. "sharded:cilk_for": the loop model over a
// Resolver, reachable through ModelResolver.
const ShardedPrefix = models.ShardedPrefix

// ModelResolver returns the Resolver a sharded model runs on, for
// per-shard reporting (ShardStats, NumShards, BalancerName) and hot
// shard management; it reports false for unsharded models.
func ModelResolver(m Model) (*Resolver, bool) { return models.Resolver(m) }

// WithShardCount splits a pooled model's runtime into n shards behind
// a Resolver: 0 disables sharding, a negative value selects
// GOMAXPROCS shards. Models without a persistent runtime ignore it.
func WithShardCount(n int) ModelOption { return models.WithShardCount(n) }

// WithShardBalancer names the balancer routing a sharded model's work
// (see ParseBalancer for the accepted names).
func WithShardBalancer(name string) ModelOption { return models.WithShardBalancer(name) }

// Thread is a C++11-style thread of execution; see internal/futures.
type Thread = futures.Thread

// NewThread starts fn on a new thread of execution.
func NewThread(fn func()) *Thread { return futures.NewThread(fn) }

// Async runs fn under the given launch policy and returns a future.
func Async[T any](policy futures.Policy, fn func() (T, error)) *futures.Future[T] {
	return futures.Async(policy, fn)
}

// Launch policies for Async.
const (
	LaunchAsync    = futures.LaunchAsync
	LaunchDeferred = futures.LaunchDeferred
)

// Deps declares an explicit task's dependences for TeamCtx.TaskDepend
// (OpenMP depend(in/out) semantics).
type Deps = forkjoin.Deps

// Future is the receiving end of an asynchronous computation.
type Future[T any] = futures.Future[T]

// WhenAll returns a future resolving once every input has resolved,
// carrying all values in order.
func WhenAll[T any](fs ...*Future[T]) *Future[[]T] { return futures.WhenAll(fs...) }

// WhenAny returns a future resolving as soon as any input settles.
func WhenAny[T any](fs ...*Future[T]) *Future[futures.AnyResult[T]] {
	return futures.WhenAny(fs...)
}

// Then attaches a continuation to a future.
func Then[T, U any](f *Future[T], fn func(T) (U, error)) *Future[U] {
	return futures.Then(f, fn)
}

// Pipeline is a TBB-style parallel pipeline; construct with
// NewPipeline and filters AddSerial / AddParallel.
type Pipeline = pipeline.Pipeline

// NewPipeline returns an empty pipeline.
func NewPipeline() *Pipeline { return pipeline.New() }

// Device is a simulated accelerator with a discrete address space;
// see internal/offload.
type Device = offload.Device

// DeviceOption configures a Device at construction.
type DeviceOption = offload.Option

// NewDevice creates a simulated accelerator for offloading-pattern
// code (target regions, explicit data movement, streams).
func NewDevice(name string, options ...DeviceOption) *Device {
	return offload.NewDevice(name, options...)
}

// WithUnits sets a device's number of compute units.
func WithUnits(n int) DeviceOption { return offload.WithUnits(n) }

// WithLatency sets a device's simulated interconnect latency, added
// to every host<->device copy.
func WithLatency(d time.Duration) DeviceOption { return offload.WithLatency(d) }

// Buffer is a device-resident array in a Device's address space.
type Buffer = offload.Buffer

// Mapping binds a host slice to OpenMP-style map semantics for a
// Device.Target region.
type Mapping = offload.Mapping

// Map directions for Mapping.
const (
	MapTo     = offload.MapTo
	MapFrom   = offload.MapFrom
	MapToFrom = offload.MapToFrom
	MapAlloc  = offload.MapAlloc
)

// SpanScope is the instrumented task surface of the work/span
// analyzer.
type SpanScope = workspan.Scope

// SpanOptions configure a work/span profile run.
type SpanOptions = workspan.Options

// SpanReport is the result of a work/span profile: work (T1), span
// (T-infinity), parallelism, burdened parallelism and speedup bounds.
type SpanReport = workspan.Report

// ProfileSpan executes a task graph serially and returns its DAG
// metrics — a Cilkview-style scalability analysis (Table III's tool
// support for Cilk Plus).
func ProfileSpan(opts SpanOptions, root func(SpanScope)) SpanReport {
	return workspan.Profile(opts, root)
}

// SuiteConfig selects what RunSuite executes: the figure IDs and CSV
// switch, around an embedded RunConfig.
type SuiteConfig = harness.SuiteConfig

// RunConfig configures each experiment run of a suite (thread sweep,
// repetitions, scale, model-shaping knobs); see internal/harness.
type RunConfig = harness.Config

// RunSuite regenerates the paper's performance figures, writing
// tables to out.
func RunSuite(cfg SuiteConfig, out io.Writer) ([]*harness.Result, error) {
	return harness.RunSuite(cfg, out)
}

// RunSuiteCtx is RunSuite with cooperative cancellation: a canceled
// or expired context aborts the suite at the next measurement
// boundary, returning the completed results alongside the context's
// error.
func RunSuiteCtx(ctx context.Context, cfg SuiteConfig, out io.Writer) ([]*harness.Result, error) {
	return harness.RunSuiteCtx(ctx, cfg, out)
}

// FeatureReport writes the paper's qualitative comparison tables
// (1..3; empty selects all) to out.
func FeatureReport(tables []int, out io.Writer) error {
	return harness.FeatureReport(tables, out)
}
