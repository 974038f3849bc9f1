package pipeline

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestModeString(t *testing.T) {
	if Serial.String() != "serial_in_order" || Parallel.String() != "parallel" ||
		Mode(9).String() != "unknown" {
		t.Error("Mode.String wrong")
	}
}

func TestEmptyPipelineErrors(t *testing.T) {
	if _, err := New().Run(2, 4, fromSlice([]int{1}), func(any) {}); err == nil {
		t.Fatal("empty pipeline did not error")
	}
}

func TestSerialOnlyOrder(t *testing.T) {
	p := New().AddSerial("double", func(v any) (any, error) {
		return v.(int) * 2, nil
	})
	in := []int{1, 2, 3, 4, 5}
	var got []int
	n, err := p.Run(4, 2, fromSlice(in), func(v any) { got = append(got, v.(int)) })
	if err != nil || n != 5 {
		t.Fatalf("Run = (%d, %v)", n, err)
	}
	for i, v := range got {
		if v != in[i]*2 {
			t.Fatalf("got %v", got)
		}
	}
}

func TestParallelThenSerialRestoresOrder(t *testing.T) {
	// A parallel middle stage scrambles completion order; the serial
	// sink stage must still observe items in sequence.
	p := New().
		AddParallel("square", func(v any) (any, error) {
			x := v.(int)
			// Uneven work to encourage reordering.
			spin := (x % 7) * 1000
			acc := 0
			for i := 0; i < spin; i++ {
				acc += i
			}
			_ = acc
			return x * x, nil
		}).
		AddSerial("collect", func(v any) (any, error) { return v, nil })
	const n = 500
	in := make([]int, n)
	for i := range in {
		in[i] = i
	}
	var got []int
	count, err := p.Run(4, 8, fromSlice(in), func(v any) { got = append(got, v.(int)) })
	if err != nil || count != n {
		t.Fatalf("Run = (%d, %v)", count, err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("order violated at %d: got %d, want %d", i, v, i*i)
		}
	}
}

func TestThreeStageMixed(t *testing.T) {
	var serialConcurrent atomic.Int32
	var maxSeen atomic.Int32
	p := New().
		AddSerial("tag", func(v any) (any, error) {
			cur := serialConcurrent.Add(1)
			if cur > maxSeen.Load() {
				maxSeen.Store(cur)
			}
			serialConcurrent.Add(-1)
			return v, nil
		}).
		AddParallel("work", func(v any) (any, error) { return v.(int) + 1, nil }).
		AddSerial("emit", func(v any) (any, error) { return v, nil })
	in := make([]int, 200)
	for i := range in {
		in[i] = i
	}
	sum := 0
	n, err := p.Run(4, 16, fromSlice(in), func(v any) { sum += v.(int) })
	if err != nil || n != 200 {
		t.Fatalf("Run = (%d, %v)", n, err)
	}
	want := 200*199/2 + 200
	if sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	if maxSeen.Load() > 1 {
		t.Fatalf("serial stage ran %d items concurrently", maxSeen.Load())
	}
}

func TestErrorAborts(t *testing.T) {
	boom := errors.New("boom")
	var processedAfterError atomic.Int64
	p := New().AddParallel("failing", func(v any) (any, error) {
		if v.(int) == 10 {
			return nil, boom
		}
		processedAfterError.Add(1)
		return v, nil
	})
	in := make([]int, 10_000)
	for i := range in {
		in[i] = i
	}
	n, err := p.Run(4, 8, fromSlice(in), func(any) {})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if !strings.Contains(err.Error(), "failing") {
		t.Fatalf("error %q lacks stage name", err)
	}
	// The abort must stop the source long before all 10k items.
	if n >= 9_000 {
		t.Fatalf("abort ineffective: %d items fully processed", n)
	}
}

func TestTokenBoundRespected(t *testing.T) {
	var inFlight, peak atomic.Int64
	p := New().
		AddParallel("in", func(v any) (any, error) {
			cur := inFlight.Add(1)
			for {
				pk := peak.Load()
				if cur <= pk || peak.CompareAndSwap(pk, cur) {
					break
				}
			}
			return v, nil
		}).
		AddParallel("out", func(v any) (any, error) {
			inFlight.Add(-1)
			return v, nil
		})
	in := make([]int, 1000)
	const tokens = 4
	if _, err := p.Run(8, tokens, fromSlice(in), func(any) {}); err != nil {
		t.Fatal(err)
	}
	// Peak concurrent items between stage entry and exit cannot
	// exceed the token budget.
	if peak.Load() > tokens {
		t.Fatalf("peak in-flight %d > tokens %d", peak.Load(), tokens)
	}
}

func TestPipelineReusable(t *testing.T) {
	p := New().AddParallel("id", func(v any) (any, error) { return v, nil })
	for round := 0; round < 3; round++ {
		n, err := p.Run(2, 2, fromSlice([]int{1, 2, 3}), func(any) {})
		if err != nil || n != 3 {
			t.Fatalf("round %d: (%d, %v)", round, n, err)
		}
	}
}

func TestStagesCount(t *testing.T) {
	p := New().AddSerial("a", nil).AddParallel("b", nil)
	if p.Stages() != 2 {
		t.Fatalf("Stages = %d", p.Stages())
	}
}

func TestQuickSumPreserved(t *testing.T) {
	check := func(vals []int16, w8, t8 uint8) bool {
		workers := int(w8%4) + 1
		tokens := int(t8%8) + 1
		in := make([]int, len(vals))
		want := 0
		for i, v := range vals {
			in[i] = int(v)
			want += int(v) + 1
		}
		p := New().
			AddParallel("inc", func(v any) (any, error) { return v.(int) + 1, nil }).
			AddSerial("sum", func(v any) (any, error) { return v, nil })
		got := 0
		n, err := p.Run(workers, tokens, fromSlice(in), func(v any) { got += v.(int) })
		return err == nil && n == len(in) && got == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// fromSlice adapts a slice into a Run source.
func fromSlice[T any](items []T) func() (any, bool) {
	i := 0
	return func() (any, bool) {
		if i >= len(items) {
			return nil, false
		}
		v := items[i]
		i++
		return v, true
	}
}
