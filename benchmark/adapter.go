package main

// adapter.go is the benchmark's only importer of threading/internal/...
// Everything else in this directory reaches the program through the
// types and functions declared here, so a refactor of the program's
// surfaces is absorbed in this one file and the measuring code stays
// identical across the commits it compares. The symbol list in
// README.md ("What adapter.go depends on") must match the imports
// below.

import (
	"context"
	"net/http"

	"threading/internal/deque"
	"threading/internal/futures"
	"threading/internal/models"
	"threading/internal/sched"
	"threading/internal/serve"
	"threading/internal/shard"
	"threading/internal/syncprim"
	"threading/internal/worksteal"
)

// executor is the five-method loop/submit surface (shard.Executor).
type executor = shard.Executor

// taskScope is the spawn/sync surface a task body receives.
type taskScope = models.TaskScope

// taskRunner is the slice of models.Model the tasks workload uses.
type taskRunner interface {
	TaskRunCtx(ctx context.Context, root func(taskScope)) error
	Close()
}

// modelLoop is the slice of models.Model behind
// models.model_vs_executor_ratio: the same runtime entered through
// the Model surface instead of the Executor one.
type modelLoop interface {
	ParallelForCtx(ctx context.Context, n int, body func(lo, hi int)) error
	Close()
}

// execVariant selects the layer-only series of a loop runtime.
type execVariant int

const (
	plain   execVariant = iota
	lazy                // cilk_for with the lazy-splitting partitioner
	sharded             // "sharded:<name>", 2 shards, least-loaded
)

func newExecutor(name string, threads int, v execVariant) (executor, error) {
	switch v {
	case lazy:
		return models.NewExecutor(name, threads, models.WithPartitioner(worksteal.Lazy))
	case sharded:
		return models.NewExecutor(models.ShardedPrefix+name, threads,
			models.WithShardCount(2), models.WithShardBalancer("least-loaded"))
	}
	return models.NewExecutor(name, threads)
}

func newTaskRunner(name string, threads int) (taskRunner, error) {
	return models.New(name, threads)
}

func newModelLoop(name string, threads int) (modelLoop, error) {
	return models.New(name, threads)
}

// counts is the subset of sched.Snapshot the benchmark reports.
type counts struct {
	Units        int64 // loop chunks handed out + tasks executed
	Spawns       int64
	Steals       int64
	FailedSteals int64
	Parks        int64
}

func (c counts) add(o counts) counts {
	return counts{c.Units + o.Units, c.Spawns + o.Spawns, c.Steals + o.Steals,
		c.FailedSteals + o.FailedSteals, c.Parks + o.Parks}
}

func (c counts) sub(o counts) counts {
	return counts{c.Units - o.Units, c.Spawns - o.Spawns, c.Steals - o.Steals,
		c.FailedSteals - o.FailedSteals, c.Parks - o.Parks}
}

// readCounts reads a runtime's cumulative scheduler counters through
// the optional Stats() assertion; the thread-per-task family has no
// persistent runtime and reports false.
func readCounts(rt any) (counts, bool) {
	var s sched.Snapshot
	switch x := rt.(type) {
	case interface{ Stats() sched.Snapshot }:
		s = x.Stats()
	case interface {
		SchedulerStats() (sched.Snapshot, bool)
	}:
		var ok bool
		if s, ok = x.SchedulerStats(); !ok {
			return counts{}, false
		}
	default:
		return counts{}, false
	}
	return counts{
		Units:        s.LoopChunks + s.TasksExecuted,
		Spawns:       s.Spawns,
		Steals:       s.Steals,
		FailedSteals: s.FailedSteals,
		Parks:        s.Parks,
	}, true
}

// serverConfig is the slice of serve.Config the benchmark sets.
type serverConfig struct {
	Model    string
	Threads  int
	Queue    int // 0 = the server's default (4x threads)
	WorkSize int
	Metrics  bool
}

// server is an in-process threadserve instance: its URL surface
// (/run, /fanout, /statz, /metrics) through ServeHTTP, and Close.
type server interface {
	http.Handler
	Close() error
}

func newServer(c serverConfig) (server, error) {
	return serve.New(serve.Config{
		Model:    c.Model,
		Threads:  c.Threads,
		Queue:    c.Queue,
		WorkSize: c.WorkSize,
		Metrics:  c.Metrics,
	})
}

// Leaf primitives, timed from outside by layers.go.

type dequeItem struct{ _ int }

type workDeque = deque.Deque[dequeItem]

func newDeque(locked bool) workDeque {
	if locked {
		return deque.New[dequeItem](deque.KindLocked)
	}
	return deque.New[dequeItem](deque.KindChaseLev)
}

type barrier interface{ Wait() bool }

func newBarrier(central bool, n int) barrier {
	if central {
		return syncprim.NewCentralBarrier(n)
	}
	return syncprim.NewSenseBarrier(n)
}

func threadSpawnJoin(fn func()) { futures.NewThread(fn).Join() }

func asyncGet(fn func() (int, error)) (int, error) {
	return futures.Async(futures.LaunchAsync, fn).Get()
}

func promiseSetGet(v int) (int, error) {
	p := futures.NewPromise[int]()
	f := p.Future()
	p.Set(v)
	return f.Get()
}
