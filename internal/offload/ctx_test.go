package offload

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"threading/internal/sched"
)

func TestLaunchCtxCancelDeviceReusable(t *testing.T) {
	dev := NewDevice("gpu-ctx", WithUnits(2))
	defer func() {
		if err := dev.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	buf := dev.Alloc(16)
	defer buf.Free()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	err := dev.LaunchCtx(ctx, 16, func(i int, args [][]float64) {
		once.Do(cancel)
		<-ctx.Done()
	}, buf)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// The device must stay usable after a canceled launch.
	if err := dev.LaunchCtx(context.Background(), 16, func(i int, args [][]float64) {
		args[0][i] = float64(i)
	}, buf); err != nil {
		t.Fatalf("LaunchCtx after cancel: %v", err)
	}
	host := make([]float64, 16)
	dev.FromDevice(host, buf)
	if host[15] != 15 {
		t.Fatalf("host[15] = %v, want 15", host[15])
	}
}

func TestTargetCtxCancelSkipsCopyOut(t *testing.T) {
	dev := NewDevice("gpu-target", WithUnits(2))
	host := []float64{1, 2, 3}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := dev.TargetCtx(ctx, []Mapping{{Host: host, Dir: MapToFrom}}, func(bufs []*Buffer) {
		dev.Launch(3, func(i int, args [][]float64) { args[0][i] = 99 }, bufs[0])
		cancel()
		<-ctx.Done()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, v := range host {
		if v != float64(i+1) {
			t.Fatalf("host[%d] = %v: copy-out ran on a canceled region", i, v)
		}
	}
	// All buffers were freed despite the cancellation.
	if err := dev.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestTargetCtxExpiredMapsNothing(t *testing.T) {
	dev := NewDevice("gpu-expired")
	defer func() {
		if err := dev.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	ran := false
	err := dev.TargetCtx(ctx, []Mapping{{Host: []float64{1}, Dir: MapTo}}, func([]*Buffer) {
		ran = true
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if ran {
		t.Fatal("body ran under an expired context")
	}
}

func TestTargetCtxPanicFreesBuffers(t *testing.T) {
	dev := NewDevice("gpu-panic")
	host := []float64{1, 2, 3}
	err := dev.TargetCtx(context.Background(), []Mapping{{Host: host, Dir: MapToFrom}},
		func([]*Buffer) { panic("target-boom") })
	var pe *sched.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *sched.PanicError", err)
	}
	if pe.Value != "target-boom" {
		t.Fatalf("PanicError.Value = %v, want target-boom", pe.Value)
	}
	if host[0] != 1 {
		t.Fatal("copy-out ran on a panicked region")
	}
	// The panicked region must not leak buffers.
	if err := dev.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestKernelPanicTyped(t *testing.T) {
	dev := NewDevice("gpu-kpanic", WithUnits(2))
	defer func() {
		if err := dev.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	buf := dev.Alloc(8)
	defer buf.Free()
	err := dev.LaunchCtx(context.Background(), 8, func(i int, args [][]float64) {
		if i == 0 {
			panic("kernel-boom")
		}
	}, buf)
	var pe *sched.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *sched.PanicError", err)
	}
	if pe.Value != "kernel-boom" {
		t.Fatalf("PanicError.Value = %v, want kernel-boom", pe.Value)
	}
}

func TestNewDeviceOptions(t *testing.T) {
	dev := NewDevice("gpu", WithUnits(3), WithLatency(0))
	defer dev.Close()
	if dev.Units() != 3 {
		t.Fatalf("Units = %d, want 3", dev.Units())
	}
}
