package sched

import (
	"sync/atomic"
	"unsafe"

	"threading/internal/deque"
)

// CacheLine is the assumed cache-line size in bytes, deque.CacheLine
// under the name the scheduler layers pad with.
const CacheLine = deque.CacheLine

// Stats aggregates scheduler event counters, sharded per worker so
// that hot paths (a counter bump per spawned task) never contend on a
// shared cache line. Workers obtain their Shard once and count
// through it; Snapshot folds over all shards.
//
// The zero Stats has no shards and silently counts nothing through
// the aggregate helpers; construct with NewStats.
type Stats struct {
	shards []Shard
}

// shardCounters holds one worker's counters. It is separated from
// Shard so the pad below can be computed from its size at compile
// time: adding a counter grows the struct and shrinks the pad
// automatically instead of silently overflowing a fixed-size pad and
// reintroducing false sharing between adjacent shards.
type shardCounters struct {
	tasksExecuted atomic.Int64
	spawns        atomic.Int64
	steals        atomic.Int64
	failedSteals  atomic.Int64
	parks         atomic.Int64
	barrierWaits  atomic.Int64
	loopChunks    atomic.Int64
	lazySplits    atomic.Int64
	batchSteals   atomic.Int64
	batchStolen   atomic.Int64
	helpFirst     atomic.Int64
}

// Shard is one worker's private counter block. The trailing pad rounds
// the struct up to a multiple of two cache lines, so shards laid out
// contiguously in Stats never share a line — two lines rather than
// one, because adjacent-line prefetchers pull neighbouring lines into
// the same coherence traffic. shard_test.go asserts the invariant.
type Shard struct {
	shardCounters
	_ [(2*CacheLine - unsafe.Sizeof(shardCounters{})%(2*CacheLine)) % (2 * CacheLine)]byte
}

// NewStats returns counters with one shard per worker.
func NewStats(workers int) *Stats {
	if workers < 1 {
		workers = 1
	}
	return &Stats{shards: make([]Shard, workers)}
}

// Shard returns worker i's counter block.
func (s *Stats) Shard(i int) *Shard { return &s.shards[i] }

// CountTask records one executed task.
func (s *Shard) CountTask() { s.tasksExecuted.Add(1) }

// CountSpawn records one spawned task.
func (s *Shard) CountSpawn() { s.spawns.Add(1) }

// CountSteal records one successful steal.
func (s *Shard) CountSteal() { s.steals.Add(1) }

// CountFailedSteal records one steal attempt that found nothing.
func (s *Shard) CountFailedSteal() { s.failedSteals.Add(1) }

// CountPark records one worker park.
func (s *Shard) CountPark() { s.parks.Add(1) }

// CountBarrierWait records one barrier arrival.
func (s *Shard) CountBarrierWait() { s.barrierWaits.Add(1) }

// CountLoopChunk records one work-sharing loop chunk hand-out.
func (s *Shard) CountLoopChunk() { s.loopChunks.Add(1) }

// CountLazySplit records one demand-driven split performed by the lazy
// loop partitioner.
func (s *Shard) CountLazySplit() { s.lazySplits.Add(1) }

// CountBatchSteal records one steal visit that migrated n tasks in a
// batch (n >= 2); single-task steals count only as Steals.
func (s *Shard) CountBatchSteal(n int) {
	s.batchSteals.Add(1)
	s.batchStolen.Add(int64(n))
}

// CountHelpFirst records one task executed by a submitting goroutine
// acting as a temporary (help-first) worker.
func (s *Shard) CountHelpFirst() { s.helpFirst.Add(1) }

// Snapshot is a point-in-time sum of all shards.
type Snapshot struct {
	TasksExecuted  int64 // tasks run to completion
	Spawns         int64 // tasks created
	Steals         int64 // successful steals
	FailedSteals   int64 // empty or lost steal attempts
	Parks          int64 // times a worker blocked idle
	BarrierWaits   int64 // barrier arrivals
	LoopChunks     int64 // work-sharing chunks handed out
	LazySplits     int64 // demand-driven splits by the lazy partitioner
	BatchSteals    int64 // steal visits that migrated >= 2 tasks
	BatchStolen    int64 // tasks migrated by batch steal visits
	HelpFirstTasks int64 // tasks executed by help-first submitters
}

// Snapshot sums the current counter values across shards.
func (s *Stats) Snapshot() Snapshot {
	var out Snapshot
	for i := range s.shards {
		sh := &s.shards[i]
		out.TasksExecuted += sh.tasksExecuted.Load()
		out.Spawns += sh.spawns.Load()
		out.Steals += sh.steals.Load()
		out.FailedSteals += sh.failedSteals.Load()
		out.Parks += sh.parks.Load()
		out.BarrierWaits += sh.barrierWaits.Load()
		out.LoopChunks += sh.loopChunks.Load()
		out.LazySplits += sh.lazySplits.Load()
		out.BatchSteals += sh.batchSteals.Load()
		out.BatchStolen += sh.batchStolen.Load()
		out.HelpFirstTasks += sh.helpFirst.Load()
	}
	return out
}

// Delta returns the counter increments between prev and s: the
// activity of the interval that started when prev was taken. Callers
// bracket a region with two Snapshots and subtract: the counters are
// never zeroed, which would race concurrent regions and lose history.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	return Snapshot{
		TasksExecuted:  s.TasksExecuted - prev.TasksExecuted,
		Spawns:         s.Spawns - prev.Spawns,
		Steals:         s.Steals - prev.Steals,
		FailedSteals:   s.FailedSteals - prev.FailedSteals,
		Parks:          s.Parks - prev.Parks,
		BarrierWaits:   s.BarrierWaits - prev.BarrierWaits,
		LoopChunks:     s.LoopChunks - prev.LoopChunks,
		LazySplits:     s.LazySplits - prev.LazySplits,
		BatchSteals:    s.BatchSteals - prev.BatchSteals,
		BatchStolen:    s.BatchStolen - prev.BatchStolen,
		HelpFirstTasks: s.HelpFirstTasks - prev.HelpFirstTasks,
	}
}

// Add returns the element-wise sum of s and o. Shard resolvers use it
// to merge per-shard snapshots into one aggregate view.
func (s Snapshot) Add(o Snapshot) Snapshot {
	return Snapshot{
		TasksExecuted:  s.TasksExecuted + o.TasksExecuted,
		Spawns:         s.Spawns + o.Spawns,
		Steals:         s.Steals + o.Steals,
		FailedSteals:   s.FailedSteals + o.FailedSteals,
		Parks:          s.Parks + o.Parks,
		BarrierWaits:   s.BarrierWaits + o.BarrierWaits,
		LoopChunks:     s.LoopChunks + o.LoopChunks,
		LazySplits:     s.LazySplits + o.LazySplits,
		BatchSteals:    s.BatchSteals + o.BatchSteals,
		BatchStolen:    s.BatchStolen + o.BatchStolen,
		HelpFirstTasks: s.HelpFirstTasks + o.HelpFirstTasks,
	}
}

// Field is one named Snapshot counter, as produced by Fields.
type Field struct {
	Name  string
	Value int64
}

// Fields returns every counter with its display name, in the stable
// presentation order the CLI tools print. Renderers iterate this
// instead of hardcoding the column list, so a new counter shows up
// everywhere by extending this one method.
func (s Snapshot) Fields() []Field {
	return []Field{
		{"tasks", s.TasksExecuted},
		{"spawns", s.Spawns},
		{"steals", s.Steals},
		{"failed-steals", s.FailedSteals},
		{"batch-steals", s.BatchSteals},
		{"batch-stolen", s.BatchStolen},
		{"help-first", s.HelpFirstTasks},
		{"parks", s.Parks},
		{"barriers", s.BarrierWaits},
		{"loop-chunks", s.LoopChunks},
		{"lazy-splits", s.LazySplits},
	}
}
