package worksteal

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"threading/internal/deque"
)

var partitioners = []Partitioner{Eager, Lazy}

func TestPartitionerString(t *testing.T) {
	if Eager.String() != "eager" || Lazy.String() != "lazy" {
		t.Errorf("String: eager=%q lazy=%q", Eager.String(), Lazy.String())
	}
	if Partitioner(99).String() != "unknown" {
		t.Errorf("Partitioner(99).String() = %q", Partitioner(99).String())
	}
	for _, tc := range []struct {
		in   string
		want Partitioner
		ok   bool
	}{
		{"eager", Eager, true},
		{"", Eager, true},
		{"lazy", Lazy, true},
		{"bogus", Eager, false},
	} {
		got, err := ParsePartitioner(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParsePartitioner(%q) = %v, %v", tc.in, got, err)
		}
	}
}

// TestPartitionerCoversRangeOnce is the core partitioner property: for
// both modes, over both deque backends, every iteration of [0, n) is
// executed exactly once, in chunks no larger than the grain.
func TestPartitionerCoversRangeOnce(t *testing.T) {
	for _, part := range partitioners {
		for _, be := range backends {
			part, be := part, be
			t.Run(part.String()+"/"+be.name, func(t *testing.T) {
				p := NewPool(4, WithDequeKind(be.kind), WithPartitioner(part))
				defer p.Close()
				if p.Partitioner() != part {
					t.Fatalf("Partitioner() = %v, want %v", p.Partitioner(), part)
				}
				check := func(n16 uint16, grain8 uint8) bool {
					n := int(n16 % 5000)
					grain := int(grain8%64) + 1
					touched := make([]atomic.Int32, n)
					p.Run(func(c *Ctx) {
						c.ForDAC(0, n, grain, func(_ *Ctx, l, h int) {
							if h-l > grain {
								t.Errorf("chunk [%d,%d) exceeds grain %d", l, h, grain)
							}
							for i := l; i < h; i++ {
								touched[i].Add(1)
							}
						})
					})
					for i := range touched {
						if touched[i].Load() != 1 {
							return false
						}
					}
					return true
				}
				if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestPartitionerCancellation cancels mid-loop and verifies no
// iteration ran more than once, the error is reported, and the pool
// stays usable with full coverage afterwards.
func TestPartitionerCancellation(t *testing.T) {
	for _, part := range partitioners {
		part := part
		t.Run(part.String(), func(t *testing.T) {
			p := NewPool(4, WithPartitioner(part))
			defer p.Close()
			const n = 100000
			touched := make([]atomic.Int32, n)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var fired atomic.Int64
			err := p.RunCtx(ctx, func(c *Ctx) {
				c.ForDAC(0, n, 16, func(_ *Ctx, l, h int) {
					// Cancel partway through so chunks queued behind
					// this one drain without executing.
					if fired.Add(1) == 50 {
						cancel()
					}
					for i := l; i < h; i++ {
						touched[i].Add(1)
					}
				})
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			ran := 0
			for i := range touched {
				switch touched[i].Load() {
				case 0:
				case 1:
					ran++
				default:
					t.Fatalf("iteration %d executed %d times", i, touched[i].Load())
				}
			}
			if ran == n {
				t.Log("cancellation raced loop completion; coverage property still verified")
			}
			// The pool must remain fully usable: exact coverage on a
			// fresh run.
			for i := range touched {
				touched[i].Store(0)
			}
			p.Run(func(c *Ctx) {
				c.ForDAC(0, n, 64, func(_ *Ctx, l, h int) {
					for i := l; i < h; i++ {
						touched[i].Add(1)
					}
				})
			})
			for i := range touched {
				if touched[i].Load() != 1 {
					t.Fatalf("after cancel: iteration %d executed %d times", i, touched[i].Load())
				}
			}
		})
	}
}

// TestLazyReduction checks the reducer path (per-worker views,
// including help-first slots) under the lazy partitioner.
func TestLazyReduction(t *testing.T) {
	p := NewPool(4, WithPartitioner(Lazy))
	defer p.Close()
	const n = 200000
	r := NewReducer(p, 0.0, func(a, b float64) float64 { return a + b })
	p.Run(func(c *Ctx) {
		c.ForDAC(0, n, 0, func(cc *Ctx, l, h int) {
			v := r.View(cc)
			for i := l; i < h; i++ {
				*v += float64(i)
			}
		})
	})
	want := float64(n) * float64(n-1) / 2
	if got := r.Value(); got != want {
		t.Fatalf("lazy reducer sum = %g, want %g", got, want)
	}
}

// TestHelpFirstSubmitter verifies that the submitting goroutine
// executes tasks itself: on a pool whose single worker is blocked, the
// run can only finish if the submitter works help-first.
func TestHelpFirstSubmitter(t *testing.T) {
	p := NewPool(1)
	defer p.Close()

	// Occupy the only dedicated worker (it may also be the helper
	// executing the root; either way the second run below can only
	// proceed through a help-first submitter).
	block := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.Run(func(c *Ctx) {
			c.Spawn(func(*Ctx) {
				close(started)
				<-block
			})
			c.Sync()
		})
	}()
	<-started

	var ran atomic.Int64
	p.Run(func(c *Ctx) {
		for i := 0; i < 32; i++ {
			c.Spawn(func(*Ctx) { ran.Add(1) })
		}
		c.Sync()
	})
	if ran.Load() != 32 {
		t.Fatalf("help-first run executed %d of 32 tasks", ran.Load())
	}
	s := p.Stats()
	if s.HelpFirstTasks == 0 {
		t.Error("HelpFirstTasks = 0, want > 0")
	}
	close(block)
	wg.Wait()
}

// TestManyConcurrentRuns exceeds MaxHelpers so some submitters take
// the fallback submit-and-park path, and checks every run completes.
func TestManyConcurrentRuns(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	const runs = 3 * MaxHelpers
	var total atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < runs; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Run(func(c *Ctx) {
				c.ForEach(0, 500, 7, func(_ *Ctx, i int) { total.Add(1) })
			})
		}()
	}
	wg.Wait()
	if total.Load() != runs*500 {
		t.Fatalf("total = %d, want %d", total.Load(), runs*500)
	}
}

// TestLazySplitsUnderDemand forces demand (idle parked workers) and
// verifies the lazy partitioner actually splits — i.e. parallelism is
// not silently lost when other workers are hungry.
func TestLazySplitsUnderDemand(t *testing.T) {
	const workers = 4
	p := NewPool(workers, WithPartitioner(Lazy))
	defer p.Close()
	// On a loaded or single-CPU machine the dedicated workers may not
	// have been scheduled (and parked) yet; demand is only signalled by
	// parked or searching workers, so wait for them to settle first.
	deadline := time.Now().Add(5 * time.Second)
	for p.core.Parked() < workers {
		if time.Now().After(deadline) {
			t.Fatalf("workers never parked (parkedCount=%d)", p.core.Parked())
		}
		runtime.Gosched()
	}
	var sink atomic.Int64
	p.Run(func(c *Ctx) {
		c.ForDAC(0, 1<<16, 8, func(_ *Ctx, l, h int) {
			acc := int64(0)
			for i := l; i < h; i++ {
				acc += int64(i)
			}
			sink.Add(acc)
		})
	})
	if s := p.Stats(); s.LazySplits == 0 {
		t.Errorf("LazySplits = 0 under demand, want > 0 (stats: %+v)", s)
	}
}

func TestBatchStealCounted(t *testing.T) {
	for _, be := range backends {
		be := be
		t.Run(be.name, func(t *testing.T) {
			p := NewPool(4, WithDequeKind(be.kind))
			defer p.Close()
			// A wide eager fan-out from one producer gives thieves
			// queues worth batch-stealing from.
			var n atomic.Int64
			p.Run(func(c *Ctx) {
				for i := 0; i < 5000; i++ {
					c.Spawn(func(*Ctx) { n.Add(1) })
				}
				c.Sync()
			})
			if n.Load() != 5000 {
				t.Fatalf("ran %d of 5000", n.Load())
			}
			if s := p.Stats(); s.BatchSteals == 0 {
				t.Logf("no batch steals observed (stats: %+v); legal but unexpected under fan-out", s)
			} else if s.BatchStolen < 2*s.BatchSteals {
				t.Errorf("BatchStolen = %d < 2*BatchSteals = %d", s.BatchStolen, 2*s.BatchSteals)
			}
		})
	}
}

// TestLazyDeque runs the lazy partitioner over the locked backend so
// the StealHalf/Locked path is exercised by the scheduler too.
func TestLazyDeque(t *testing.T) {
	p := NewPool(3, WithDequeKind(deque.KindLocked), WithPartitioner(Lazy))
	defer p.Close()
	var n atomic.Int64
	p.Run(func(c *Ctx) {
		c.ForEach(0, 10000, 4, func(_ *Ctx, i int) { n.Add(1) })
	})
	if n.Load() != 10000 {
		t.Fatalf("ran %d of 10000", n.Load())
	}
}
