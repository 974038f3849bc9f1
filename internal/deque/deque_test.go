package deque

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"
)

var kinds = []Kind{KindChaseLev, KindLocked}

func TestKindString(t *testing.T) {
	if KindChaseLev.String() != "chase-lev" {
		t.Errorf("KindChaseLev.String() = %q", KindChaseLev.String())
	}
	if KindLocked.String() != "locked" {
		t.Errorf("KindLocked.String() = %q", KindLocked.String())
	}
	if Kind(99).String() != "unknown" {
		t.Errorf("Kind(99).String() = %q", Kind(99).String())
	}
}

func TestEmpty(t *testing.T) {
	for _, k := range kinds {
		d := New[int](k)
		if got := d.PopBottom(); got != nil {
			t.Errorf("%v: PopBottom on empty = %v, want nil", k, got)
		}
		if got := d.Steal(); got != nil {
			t.Errorf("%v: Steal on empty = %v, want nil", k, got)
		}
		if d.Len() != 0 {
			t.Errorf("%v: Len on empty = %d, want 0", k, d.Len())
		}
	}
}

func TestLIFOOwner(t *testing.T) {
	for _, k := range kinds {
		d := New[int](k)
		vals := []int{1, 2, 3, 4, 5}
		for i := range vals {
			d.PushBottom(&vals[i])
		}
		if d.Len() != 5 {
			t.Errorf("%v: Len = %d, want 5", k, d.Len())
		}
		for i := len(vals) - 1; i >= 0; i-- {
			got := d.PopBottom()
			if got == nil || *got != vals[i] {
				t.Fatalf("%v: PopBottom = %v, want %d", k, got, vals[i])
			}
		}
		if got := d.PopBottom(); got != nil {
			t.Errorf("%v: PopBottom after drain = %v, want nil", k, got)
		}
	}
}

func TestFIFOSteal(t *testing.T) {
	for _, k := range kinds {
		d := New[int](k)
		vals := []int{10, 20, 30}
		for i := range vals {
			d.PushBottom(&vals[i])
		}
		for i := range vals {
			got := d.Steal()
			if got == nil || *got != vals[i] {
				t.Fatalf("%v: Steal = %v, want %d", k, got, vals[i])
			}
		}
		if got := d.Steal(); got != nil {
			t.Errorf("%v: Steal after drain = %v, want nil", k, got)
		}
	}
}

func TestMixedEnds(t *testing.T) {
	for _, k := range kinds {
		d := New[int](k)
		vals := []int{1, 2, 3, 4}
		for i := range vals {
			d.PushBottom(&vals[i])
		}
		if got := d.Steal(); got == nil || *got != 1 {
			t.Fatalf("%v: first Steal = %v, want 1", k, got)
		}
		if got := d.PopBottom(); got == nil || *got != 4 {
			t.Fatalf("%v: PopBottom = %v, want 4", k, got)
		}
		if got := d.Steal(); got == nil || *got != 2 {
			t.Fatalf("%v: second Steal = %v, want 2", k, got)
		}
		if got := d.PopBottom(); got == nil || *got != 3 {
			t.Fatalf("%v: last PopBottom = %v, want 3", k, got)
		}
		if d.Len() != 0 {
			t.Errorf("%v: Len = %d, want 0", k, d.Len())
		}
	}
}

// TestGrow pushes past the initial ring capacity to exercise ChaseLev
// ring growth, interleaving steals so the live window straddles a wrap.
func TestGrow(t *testing.T) {
	d := NewChaseLev[int]()
	const n = 10 * minRingCap
	vals := make([]int, n)
	stolen := 0
	for i := 0; i < n; i++ {
		vals[i] = i
		d.PushBottom(&vals[i])
		if i%3 == 0 {
			if got := d.Steal(); got == nil || *got != stolen {
				t.Fatalf("Steal = %v, want %d", got, stolen)
			}
			stolen++
		}
	}
	// Drain the rest from the bottom and verify the set of values.
	seen := make(map[int]bool)
	for {
		v := d.PopBottom()
		if v == nil {
			break
		}
		if seen[*v] {
			t.Fatalf("value %d popped twice", *v)
		}
		seen[*v] = true
	}
	if len(seen) != n-stolen {
		t.Fatalf("popped %d values, want %d", len(seen), n-stolen)
	}
	for i := stolen; i < n; i++ {
		if !seen[i] {
			t.Fatalf("value %d lost", i)
		}
	}
}

// TestQuickSequential drives a random sequence of operations against a
// reference slice model and checks each result, for both kinds.
func TestQuickSequential(t *testing.T) {
	for _, k := range kinds {
		k := k
		check := func(ops []uint8) bool {
			d := New[int](k)
			var model []int
			next := 0
			vals := make([]int, 0, len(ops))
			for _, op := range ops {
				switch op % 3 {
				case 0: // push
					vals = append(vals, next)
					d.PushBottom(&vals[len(vals)-1])
					model = append(model, next)
					next++
				case 1: // pop bottom
					got := d.PopBottom()
					if len(model) == 0 {
						if got != nil {
							return false
						}
					} else {
						want := model[len(model)-1]
						model = model[:len(model)-1]
						if got == nil || *got != want {
							return false
						}
					}
				case 2: // steal
					got := d.Steal()
					if len(model) == 0 {
						if got != nil {
							return false
						}
					} else {
						want := model[0]
						model = model[1:]
						if got == nil || *got != want {
							return false
						}
					}
				}
			}
			return d.Len() == len(model)
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%v: %v", k, err)
		}
	}
}

// TestConcurrentSteal runs one owner against several thieves and
// verifies that every pushed element is consumed exactly once.
func TestConcurrentSteal(t *testing.T) {
	for _, k := range kinds {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			const (
				n       = 100000
				thieves = 4
			)
			d := New[int](k)
			consumed := make([]atomic.Int32, n)
			var done atomic.Bool
			var wg sync.WaitGroup
			for i := 0; i < thieves; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !done.Load() {
						if v := d.Steal(); v != nil {
							consumed[*v].Add(1)
						}
					}
					// Final sweep after the owner finishes.
					for {
						v := d.Steal()
						if v == nil {
							return
						}
						consumed[*v].Add(1)
					}
				}()
			}
			vals := make([]int, n)
			for i := 0; i < n; i++ {
				vals[i] = i
				d.PushBottom(&vals[i])
				if i%7 == 0 {
					if v := d.PopBottom(); v != nil {
						consumed[*v].Add(1)
					}
				}
			}
			for {
				v := d.PopBottom()
				if v == nil {
					break
				}
				consumed[*v].Add(1)
			}
			done.Store(true)
			wg.Wait()
			// The deque can legitimately look empty to the owner's
			// final PopBottom while a thief holds the last element, so
			// check totals only after everyone stopped.
			for i := range consumed {
				if c := consumed[i].Load(); c != 1 {
					t.Fatalf("element %d consumed %d times", i, c)
				}
			}
		})
	}
}

func TestStealHalfSequential(t *testing.T) {
	for _, k := range kinds {
		d := New[int](k)
		vals := make([]int, 10)
		for i := range vals {
			vals[i] = i
			d.PushBottom(&vals[i])
		}
		buf := make([]*int, 16)
		// Half of 10 is 5, oldest first.
		if n := d.StealHalf(buf); n != 5 {
			t.Fatalf("%v: StealHalf took %d, want 5", k, n)
		}
		for i := 0; i < 5; i++ {
			if *buf[i] != i {
				t.Fatalf("%v: buf[%d] = %d, want %d", k, i, *buf[i], i)
			}
		}
		// 5 remain; half rounded up is 3.
		if n := d.StealHalf(buf); n != 3 {
			t.Fatalf("%v: second StealHalf took %d, want 3", k, n)
		}
		// A short buffer caps the batch.
		if n := d.StealHalf(buf[:1]); n != 1 {
			t.Fatalf("%v: capped StealHalf took %d, want 1", k, n)
		}
		// One element left: half rounds up, so it is stealable.
		if n := d.StealHalf(buf); n != 1 {
			t.Fatalf("%v: last StealHalf took %d, want 1", k, n)
		}
		if n := d.StealHalf(buf); n != 0 {
			t.Fatalf("%v: StealHalf on empty took %d, want 0", k, n)
		}
	}
}

func TestStealHalfQuickSequential(t *testing.T) {
	for _, k := range kinds {
		k := k
		check := func(ops []uint8) bool {
			d := New[int](k)
			var model []int
			next := 0
			vals := make([]int, 0, len(ops))
			buf := make([]*int, 4)
			for _, op := range ops {
				switch op % 3 {
				case 0, 1: // push twice as often as batch-steal
					vals = append(vals, next)
					d.PushBottom(&vals[len(vals)-1])
					model = append(model, next)
					next++
				case 2:
					n := d.StealHalf(buf)
					want := (len(model) + 1) / 2
					if want > len(buf) {
						want = len(buf)
					}
					if n != want {
						return false
					}
					for i := 0; i < n; i++ {
						if *buf[i] != model[i] {
							return false
						}
					}
					model = model[n:]
				}
			}
			return d.Len() == len(model)
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%v: %v", k, err)
		}
	}
}

// TestConcurrentStealHalf runs one owner (pushing and popping) against
// thieves that mix single and batch steals, and verifies every element
// is consumed exactly once — the no-loss/no-duplication property the
// scheduler relies on.
func TestConcurrentStealHalf(t *testing.T) {
	for _, k := range kinds {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			const (
				n       = 100000
				thieves = 4
			)
			d := New[int](k)
			consumed := make([]atomic.Int32, n)
			var done atomic.Bool
			var wg sync.WaitGroup
			for i := 0; i < thieves; i++ {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					buf := make([]*int, 8)
					take := func() bool {
						if i%2 == 0 {
							m := d.StealHalf(buf)
							for j := 0; j < m; j++ {
								consumed[*buf[j]].Add(1)
							}
							return m > 0
						}
						if v := d.Steal(); v != nil {
							consumed[*v].Add(1)
							return true
						}
						return false
					}
					for !done.Load() {
						take()
					}
					for take() {
					}
				}()
			}
			vals := make([]int, n)
			for i := 0; i < n; i++ {
				vals[i] = i
				d.PushBottom(&vals[i])
				if i%7 == 0 {
					if v := d.PopBottom(); v != nil {
						consumed[*v].Add(1)
					}
				}
			}
			for {
				v := d.PopBottom()
				if v == nil {
					break
				}
				consumed[*v].Add(1)
			}
			done.Store(true)
			wg.Wait()
			for i := range consumed {
				if c := consumed[i].Load(); c != 1 {
					t.Fatalf("element %d consumed %d times", i, c)
				}
			}
		})
	}
}

func BenchmarkPushPop(b *testing.B) {
	for _, k := range kinds {
		b.Run(k.String(), func(b *testing.B) {
			d := New[int](k)
			v := 42
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.PushBottom(&v)
				d.PopBottom()
			}
		})
	}
}

func BenchmarkStealContention(b *testing.B) {
	for _, k := range kinds {
		b.Run(k.String(), func(b *testing.B) {
			d := New[int](k)
			v := 42
			var wg sync.WaitGroup
			var done atomic.Bool
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !done.Load() {
						d.Steal()
					}
				}()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.PushBottom(&v)
				d.PopBottom()
			}
			b.StopTimer()
			done.Store(true)
			wg.Wait()
		})
	}
}

// TestDequeHeadersFillWholeLines pins the layout that keeps one
// deque's hot words off its neighbours' lines: a header whose size is a
// multiple of CacheLine lands in a size class whose objects are all
// line-aligned, so no other object shares its lines.
func TestDequeHeadersFillWholeLines(t *testing.T) {
	sizes := map[Kind]uintptr{
		KindChaseLev: unsafe.Sizeof(ChaseLev[int]{}),
		KindLocked:   unsafe.Sizeof(Locked[int]{}),
	}
	for _, k := range kinds {
		if sizes[k]%CacheLine != 0 {
			t.Errorf("%v: header is %d bytes, want a multiple of %d", k, sizes[k], CacheLine)
		}
		ds := make([]Deque[int], 64) // kept live so each New gets a fresh object
		for i := range ds {
			ds[i] = New[int](k)
			if a := reflect.ValueOf(ds[i]).Pointer(); a%CacheLine != 0 {
				t.Errorf("%v: deque %d at %#x, %d bytes into a line", k, i, a, a%CacheLine)
				break
			}
		}
	}
}
