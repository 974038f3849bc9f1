package pipeline

import (
	"context"
	"errors"
	"sync"
	"testing"

	"threading/internal/sched"
)

func TestRunCtxCompletes(t *testing.T) {
	p := New().
		AddParallel("double", func(v any) (any, error) { return v.(int) * 2, nil }).
		AddSerial("sink-order", func(v any) (any, error) { return v, nil })

	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	var got []int
	n, err := p.RunCtx(context.Background(), 4, 8, fromSlice(items), func(v any) {
		got = append(got, v.(int))
	})
	if err != nil || n != 100 {
		t.Fatalf("RunCtx = (%d, %v), want (100, nil)", n, err)
	}
	for i, v := range got {
		if v != 2*i {
			t.Fatalf("got[%d] = %d, want %d (order not preserved)", i, v, 2*i)
		}
	}
}

func TestRunCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	p := New().AddParallel("block", func(v any) (any, error) {
		once.Do(cancel)
		<-ctx.Done()
		return v, nil
	})

	items := make([]int, 64)
	_, err := p.RunCtx(ctx, 4, 8, fromSlice(items), func(any) {})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// The pipeline must remain reusable after a canceled run.
	n, err := p.RunCtx(context.Background(), 2, 4, fromSlice([]int{1, 2, 3}), func(any) {})
	if err != nil || n != 3 {
		t.Fatalf("reuse RunCtx = (%d, %v), want (3, nil)", n, err)
	}
}

func TestRunCtxStagePanicTyped(t *testing.T) {
	p := New().AddParallel("boom", func(v any) (any, error) {
		if v.(int) == 0 {
			panic("stage-boom")
		}
		return v, nil
	})
	items := make([]int, 32)
	for i := range items {
		items[i] = i
	}
	_, err := p.RunCtx(context.Background(), 4, 8, fromSlice(items), func(any) {})
	var pe *sched.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *sched.PanicError", err)
	}
	if pe.Value != "stage-boom" {
		t.Fatalf("PanicError.Value = %v, want stage-boom", pe.Value)
	}
}
