package offload

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func newDev(t *testing.T) *Device {
	t.Helper()
	d := NewDevice("sim0", WithUnits(3))
	t.Cleanup(func() {
		if err := d.Close(); err != nil {
			t.Error(err)
		}
	})
	return d
}

func TestDeviceIdentity(t *testing.T) {
	d := newDev(t)
	if d.Name() != "sim0" || d.Units() != 3 {
		t.Fatalf("name=%s units=%d", d.Name(), d.Units())
	}
}

func TestAddressSpaceIsolation(t *testing.T) {
	d := newDev(t)
	host := []float64{1, 2, 3}
	b := d.Alloc(3)
	d.ToDevice(b, host)
	host[0] = 99 // mutate host AFTER the transfer
	out := make([]float64, 3)
	d.FromDevice(out, b)
	b.Free()
	if out[0] != 1 {
		t.Fatalf("device saw host mutation after transfer: %v", out)
	}
}

func TestVectorAddKernel(t *testing.T) {
	d := newDev(t)
	const n = 10000
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
		y[i] = 2 * float64(i)
	}
	bx, by, bz := d.Alloc(n), d.Alloc(n), d.Alloc(n)
	d.ToDevice(bx, x)
	d.ToDevice(by, y)
	d.Launch(n, func(i int, args [][]float64) {
		args[2][i] = args[0][i] + args[1][i]
	}, bx, by, bz)
	z := make([]float64, n)
	d.FromDevice(z, bz)
	bx.Free()
	by.Free()
	bz.Free()
	for i := range z {
		if z[i] != 3*float64(i) {
			t.Fatalf("z[%d] = %g, want %g", i, z[i], 3*float64(i))
		}
	}
}

func TestTargetMapSemantics(t *testing.T) {
	d := newDev(t)
	in := []float64{1, 2, 3, 4}
	out := make([]float64, 4)
	d.Target([]Mapping{
		{Host: in, Dir: MapTo},
		{Host: out, Dir: MapFrom},
	}, func(bufs []*Buffer) {
		d.Launch(4, func(i int, a [][]float64) { a[1][i] = a[0][i] * 10 }, bufs[0], bufs[1])
	})
	for i := range out {
		if out[i] != in[i]*10 {
			t.Fatalf("out = %v", out)
		}
	}
}

func TestTargetMapToDoesNotCopyBack(t *testing.T) {
	d := newDev(t)
	data := []float64{5, 5}
	d.Target([]Mapping{{Host: data, Dir: MapTo}}, func(bufs []*Buffer) {
		d.Launch(2, func(i int, a [][]float64) { a[0][i] = -1 }, bufs[0])
	})
	if data[0] != 5 {
		t.Fatal("map(to:) leaked device writes back to host")
	}
}

func TestTargetMapToFrom(t *testing.T) {
	d := newDev(t)
	data := []float64{1, 2, 3}
	d.Target([]Mapping{{Host: data, Dir: MapToFrom}}, func(bufs []*Buffer) {
		d.Launch(3, func(i int, a [][]float64) { a[0][i] += 1 }, bufs[0])
	})
	for i, v := range data {
		if v != float64(i+2) {
			t.Fatalf("data = %v", data)
		}
	}
}

func TestTargetFreesOnPanic(t *testing.T) {
	d := newDev(t)
	func() {
		defer func() { recover() }()
		d.Target([]Mapping{{Host: []float64{1}, Dir: MapAlloc}}, func([]*Buffer) {
			panic("kernel bug")
		})
	}()
	// Close (via cleanup) verifies no leaked buffers.
}

func TestStats(t *testing.T) {
	d := newDev(t)
	b := d.Alloc(100)
	h := make([]float64, 100)
	d.ToDevice(b, h)
	d.FromDevice(h, b)
	d.Launch(100, func(int, [][]float64) {}, b)
	b.Free()
	s := d.Stats()
	if s.BytesToDevice != 800 || s.BytesFromDevice != 800 {
		t.Fatalf("transfer bytes = %+v", s)
	}
	if s.KernelLaunches != 1 || s.WorkItems != 100 {
		t.Fatalf("launch stats = %+v", s)
	}
}

func TestCrossDeviceBufferPanics(t *testing.T) {
	d1 := newDev(t)
	d2 := NewDevice("sim1", WithUnits(1))
	defer func() {
		if err := d2.Close(); err != nil {
			t.Error(err)
		}
	}()
	b2 := d2.Alloc(1)
	defer b2.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("cross-device launch did not panic")
		}
	}()
	d1.Launch(1, func(int, [][]float64) {}, b2)
}

func TestFreedBufferPanics(t *testing.T) {
	d := newDev(t)
	b := d.Alloc(1)
	b.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("use after free did not panic")
		}
	}()
	d.ToDevice(b, []float64{1})
}

func TestSizeMismatchPanics(t *testing.T) {
	d := newDev(t)
	b := d.Alloc(2)
	defer b.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	d.ToDevice(b, []float64{1, 2, 3})
}

func TestCloseDetectsLeak(t *testing.T) {
	d := NewDevice("leaky")
	b := d.Alloc(1)
	if err := d.Close(); err == nil {
		t.Fatal("Close ignored a live buffer")
	}
	b.Free()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamFIFO(t *testing.T) {
	d := newDev(t)
	s := d.NewStream()
	defer s.Destroy()
	const n = 1000
	b := d.Alloc(n)
	defer b.Free()
	h := make([]float64, n)
	for i := range h {
		h[i] = float64(i)
	}
	out := make([]float64, n)
	// copy-in -> kernel -> copy-out must execute in order despite
	// being enqueued without waiting.
	s.CopyToDeviceAsync(b, h)
	s.LaunchAsync(n, func(i int, a [][]float64) { a[0][i] *= 2 }, b)
	s.CopyFromDeviceAsync(out, b)
	s.Synchronize()
	for i := range out {
		if out[i] != 2*float64(i) {
			t.Fatalf("out[%d] = %g", i, out[i])
		}
	}
}

func TestStreamsOverlap(t *testing.T) {
	d := newDev(t)
	s1, s2 := d.NewStream(), d.NewStream()
	defer s1.Destroy()
	defer s2.Destroy()
	var count atomic.Int64
	b1, b2 := d.Alloc(64), d.Alloc(64)
	defer b1.Free()
	defer b2.Free()
	for i := 0; i < 10; i++ {
		s1.LaunchAsync(64, func(int, [][]float64) { count.Add(1) }, b1)
		s2.LaunchAsync(64, func(int, [][]float64) { count.Add(1) }, b2)
	}
	s1.Synchronize()
	s2.Synchronize()
	if count.Load() != 20*64 {
		t.Fatalf("count = %d, want %d", count.Load(), 20*64)
	}
}

func TestStreamDestroyIdempotent(t *testing.T) {
	d := newDev(t)
	s := d.NewStream()
	s.Destroy()
	s.Destroy()
	s.Synchronize() // no-op after destroy
}

func TestQuickSaxpyOffload(t *testing.T) {
	d := newDev(t)
	check := func(n8 uint8, a8 uint8) bool {
		n := int(n8)%500 + 1
		a := float64(a8) / 8
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(i)
			y[i] = float64(n - i)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = y[i] + a*x[i]
		}
		d.Target([]Mapping{
			{Host: x, Dir: MapTo},
			{Host: y, Dir: MapToFrom},
		}, func(bufs []*Buffer) {
			d.Launch(n, func(i int, v [][]float64) {
				v[1][i] += a * v[0][i]
			}, bufs[0], bufs[1])
		})
		for i := range y {
			if y[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBufferAccessors(t *testing.T) {
	d := newDev(t)
	b := d.Alloc(7)
	if b.Len() != 7 {
		t.Fatalf("Len = %d", b.Len())
	}
	if b.Device() != d {
		t.Fatal("Device mismatch")
	}
	b.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("double Free not rejected")
		}
	}()
	b.Free()
}

func TestAllocOnClosedDevicePanics(t *testing.T) {
	d := NewDevice("closed")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc on closed device did not panic")
		}
	}()
	d.Alloc(1)
}

func TestNegativeAllocPanics(t *testing.T) {
	d := newDev(t)
	defer func() {
		if recover() == nil {
			t.Fatal("negative Alloc did not panic")
		}
	}()
	d.Alloc(-1)
}
