package sched

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestRandNonZero(t *testing.T) {
	r := NewRand(0)
	for i := 0; i < 100; i++ {
		if r.Next() == 0 && r.Next() == 0 {
			t.Fatal("xorshift state collapsed to zero")
		}
	}
}

func TestRandIntnRange(t *testing.T) {
	check := func(seed uint64, n8 uint8) bool {
		n := int(n8%31) + 1
		r := NewRand(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestRandCoversAllValues(t *testing.T) {
	r := NewRand(12345)
	const n = 8
	seen := make(map[int]bool)
	for i := 0; i < 1000 && len(seen) < n; i++ {
		seen[r.Intn(n)] = true
	}
	if len(seen) != n {
		t.Fatalf("Intn(%d) produced only %d distinct values in 1000 draws", n, len(seen))
	}
}

func TestParkerTokenBeforePark(t *testing.T) {
	var p Parker
	p.Unpark()
	done := make(chan struct{})
	go func() {
		p.Park() // must not block: token already deposited
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Park blocked despite pre-deposited token")
	}
}

func TestParkerWakeup(t *testing.T) {
	var p Parker
	done := make(chan struct{})
	go func() {
		p.Park()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Park returned without Unpark")
	case <-time.After(5 * time.Millisecond):
	}
	p.Unpark()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Unpark did not wake the parked worker")
	}
}

func TestParkerCoalesce(t *testing.T) {
	var p Parker
	p.Unpark()
	p.Unpark() // must coalesce into one token
	p.Park()
	done := make(chan struct{})
	go func() {
		p.Park()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("second Park consumed a coalesced token that should not exist")
	case <-time.After(5 * time.Millisecond):
	}
	p.Unpark()
	<-done
}

func TestStatsConcurrent(t *testing.T) {
	const workers, iters = 8, 1000
	s := NewStats(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh := s.Shard(w)
			for i := 0; i < iters; i++ {
				sh.CountTask()
				sh.CountSpawn()
				sh.CountSteal()
				sh.CountFailedSteal()
				sh.CountPark()
				sh.CountBarrierWait()
				sh.CountLoopChunk()
			}
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	want := int64(workers * iters)
	if snap.TasksExecuted != want || snap.Spawns != want || snap.Steals != want ||
		snap.FailedSteals != want || snap.Parks != want ||
		snap.BarrierWaits != want || snap.LoopChunks != want {
		t.Fatalf("lost counter updates: %+v, want all %d", snap, want)
	}
}
