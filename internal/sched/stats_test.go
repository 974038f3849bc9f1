package sched

import (
	"sync"
	"testing"
)

func TestSnapshotDelta(t *testing.T) {
	s := NewStats(2)
	s.Shard(0).CountTask()
	s.Shard(0).CountSpawn()
	s.Shard(1).CountSteal()
	base := s.Snapshot()

	s.Shard(0).CountTask()
	s.Shard(1).CountFailedSteal()
	s.Shard(1).CountBatchSteal(3)
	d := s.Snapshot().Delta(base)

	if d.TasksExecuted != 1 || d.Spawns != 0 || d.Steals != 0 {
		t.Fatalf("delta = %+v, want only the post-base increments", d)
	}
	if d.FailedSteals != 1 || d.BatchSteals != 1 || d.BatchStolen != 3 {
		t.Fatalf("delta = %+v, want failed=1 bsteals=1 bstolen=3", d)
	}
}

func TestSnapshotFieldsCoverEveryCounter(t *testing.T) {
	// Every Snapshot counter must appear in Fields exactly once, with
	// the right value — renderers iterate Fields instead of hardcoding
	// the column list, so a missing entry silently drops a column.
	s := Snapshot{
		TasksExecuted: 1, Spawns: 2, Steals: 3, FailedSteals: 4,
		Parks: 5, BarrierWaits: 6, LoopChunks: 7, LazySplits: 8,
		BatchSteals: 9, BatchStolen: 10, HelpFirstTasks: 11,
	}
	fields := s.Fields()
	if len(fields) != 11 {
		t.Fatalf("Fields has %d entries, want 11 (one per counter)", len(fields))
	}
	var sum int64
	names := map[string]bool{}
	for _, f := range fields {
		if names[f.Name] {
			t.Fatalf("duplicate field name %q", f.Name)
		}
		names[f.Name] = true
		sum += f.Value
	}
	if sum != 1+2+3+4+5+6+7+8+9+10+11 {
		t.Fatalf("field values sum to %d; some counter is missing or duplicated", sum)
	}
}

func TestStatsConcurrentSnapshotCount(t *testing.T) {
	// Counting and Snapshot racing from different goroutines must be
	// race-detector clean (the counters are advisory, so torn totals
	// are fine; data races are not).
	s := NewStats(4)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(sh *Shard) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sh.CountTask()
				sh.CountSteal()
				sh.CountBatchSteal(2)
			}
		}(s.Shard(i))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = s.Snapshot()
		}
	}()
	// Nothing zeroes the counters, so snapshots taken one after another
	// never go backwards, however the counting interleaves.
	prev := s.Snapshot()
	for i := 0; i < 200; i++ {
		cur := s.Snapshot()
		if d := cur.Delta(prev); d.TasksExecuted < 0 || d.Steals < 0 || d.BatchStolen < 0 {
			t.Fatalf("snapshot went backwards: %+v after %+v", cur, prev)
		}
		prev = cur
	}
	close(stop)
	wg.Wait()
}
