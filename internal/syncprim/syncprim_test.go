package syncprim

import (
	"sync"
	"sync/atomic"
	"testing"
)

func barriers(n int) map[string]Barrier {
	return map[string]Barrier{
		"sense":   NewSenseBarrier(n),
		"central": NewCentralBarrier(n),
	}
}

func TestBarrierPhases(t *testing.T) {
	const (
		parties = 4
		phases  = 50
	)
	for name, b := range barriers(parties) {
		t.Run(name, func(t *testing.T) {
			if b.Participants() != parties {
				t.Fatalf("Participants = %d, want %d", b.Participants(), parties)
			}
			// counter[p] must be exactly `parties` after phase p: no
			// participant may enter phase p+1 before all finished p.
			counters := make([]atomic.Int64, phases)
			var wg sync.WaitGroup
			errc := make(chan string, parties)
			for w := 0; w < parties; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for p := 0; p < phases; p++ {
						counters[p].Add(1)
						b.Wait()
						if got := counters[p].Load(); got != parties {
							errc <- "phase " + string(rune('0'+p%10)) + " incomplete at barrier exit"
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errc)
			for msg := range errc {
				t.Fatal(msg)
			}
		})
	}
}

func TestBarrierSingleWinner(t *testing.T) {
	const parties = 6
	for name, b := range barriers(parties) {
		t.Run(name, func(t *testing.T) {
			const phases = 30
			var winners atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < parties; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for p := 0; p < phases; p++ {
						if b.Wait() {
							winners.Add(1)
						}
					}
				}()
			}
			wg.Wait()
			if winners.Load() != phases {
				t.Fatalf("got %d winners over %d phases, want exactly one per phase",
					winners.Load(), phases)
			}
		})
	}
}

func TestBarrierSolo(t *testing.T) {
	for name, b := range barriers(1) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 10; i++ {
				if !b.Wait() {
					t.Fatal("solo participant must always be the releaser")
				}
			}
		})
	}
}

func TestBarrierPanicsOnZero(t *testing.T) {
	for _, ctor := range []func() Barrier{
		func() Barrier { return NewSenseBarrier(0) },
		func() Barrier { return NewCentralBarrier(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for 0 participants")
				}
			}()
			ctor()
		}()
	}
}

func BenchmarkBarrier(b *testing.B) {
	for _, parties := range []int{2, 4} {
		ctors := map[string]func(int) Barrier{
			"sense":   func(n int) Barrier { return NewSenseBarrier(n) },
			"central": func(n int) Barrier { return NewCentralBarrier(n) },
		}
		for name, ctor := range ctors {
			b.Run(name+"/p="+string(rune('0'+parties)), func(b *testing.B) {
				bar := ctor(parties)
				var wg sync.WaitGroup
				b.ResetTimer()
				for w := 0; w < parties; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < b.N; i++ {
							bar.Wait()
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}
