// Package offload simulates an accelerator with a discrete memory
// space — the offloading model of the paper's Table I (OpenMP target,
// OpenACC, CUDA, OpenCL) and the explicit data map/movement feature
// of Table II.
//
// No accelerator hardware is assumed: the "device" is a worker pool
// with its own address space. What the simulation preserves is the
// programming model and its costs: device buffers are genuine copies
// (host writes after a transfer are invisible to the device, exactly
// as across PCIe), transfers are real memcpys plus a configurable
// latency, kernels are data-parallel launches over the device's
// compute units, and streams give CUDA-style asynchronous ordering
// (FIFO within a stream, concurrency across streams).
package offload

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"threading/internal/sched"
	"threading/internal/worksteal"
)

// config is a Device's resolved Option values.
type config struct {
	// Units is the number of compute units (kernel-executing
	// workers). Zero selects 4.
	Units int
	// TransferLatency is added to every host<->device copy to model
	// interconnect latency. Zero means copies cost only the memcpy.
	TransferLatency time.Duration
}

// Option configures a Device at construction.
type Option interface{ applyDevice(*config) }

type deviceOption func(*config)

func (f deviceOption) applyDevice(o *config) { f(o) }

// WithUnits sets the number of compute units.
func WithUnits(n int) Option {
	return deviceOption(func(o *config) { o.Units = n })
}

// WithLatency sets the simulated interconnect latency added to every
// host<->device copy.
func WithLatency(d time.Duration) Option {
	return deviceOption(func(o *config) { o.TransferLatency = d })
}

// Device is a simulated accelerator.
type Device struct {
	name string
	opts config
	pool *worksteal.Pool

	mu     sync.Mutex
	live   int // live buffers, for leak detection
	closed bool

	statsMu   sync.Mutex
	toDevice  int64 // bytes host->device
	fromDev   int64 // bytes device->host
	launches  int64
	workItems int64
}

// NewDevice creates a simulated accelerator.
func NewDevice(name string, options ...Option) *Device {
	var opts config
	for _, o := range options {
		o.applyDevice(&opts)
	}
	if opts.Units <= 0 {
		opts.Units = 4
	}
	return &Device{
		name: name,
		opts: opts,
		pool: worksteal.NewPool(opts.Units),
	}
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Units returns the number of compute units.
func (d *Device) Units() int { return d.opts.Units }

// Close releases the device. All buffers must have been freed.
func (d *Device) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("offload: device %s closed twice", d.name)
	}
	if d.live != 0 {
		return fmt.Errorf("offload: device %s closed with %d live buffers", d.name, d.live)
	}
	d.closed = true
	d.pool.Close()
	return nil
}

// TransferStats reports cumulative transfer and launch counters.
type TransferStats struct {
	BytesToDevice   int64
	BytesFromDevice int64
	KernelLaunches  int64
	WorkItems       int64
}

// Stats returns the device's cumulative counters.
func (d *Device) Stats() TransferStats {
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	return TransferStats{
		BytesToDevice:   d.toDevice,
		BytesFromDevice: d.fromDev,
		KernelLaunches:  d.launches,
		WorkItems:       d.workItems,
	}
}

// Buffer is a device-resident float64 array. Its storage belongs to
// the device's address space: the only way data crosses the boundary
// is ToDevice / FromDevice.
type Buffer struct {
	dev  *Device
	data []float64
	free bool
}

// Alloc creates an uninitialized device buffer of n elements
// (cudaMalloc).
func (d *Device) Alloc(n int) *Buffer {
	if n < 0 {
		panic("offload: negative buffer size")
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		panic("offload: Alloc on closed device")
	}
	d.live++
	d.mu.Unlock()
	return &Buffer{dev: d, data: make([]float64, n)}
}

// Len returns the buffer's element count.
func (b *Buffer) Len() int { return len(b.data) }

// Device returns the owning device.
func (b *Buffer) Device() *Device { return b.dev }

// Free releases the buffer (cudaFree). Using a freed buffer panics.
func (b *Buffer) Free() {
	if b.free {
		panic("offload: buffer freed twice")
	}
	b.free = true
	b.data = nil
	b.dev.mu.Lock()
	b.dev.live--
	b.dev.mu.Unlock()
}

func (b *Buffer) check(n int, op string) {
	if b.free {
		panic("offload: " + op + " on freed buffer")
	}
	if n != len(b.data) {
		panic(fmt.Sprintf("offload: %s size mismatch: host %d, device %d", op, n, len(b.data)))
	}
}

// ToDevice copies host into the buffer (cudaMemcpy host-to-device).
// The buffer and slice lengths must match.
func (d *Device) ToDevice(b *Buffer, host []float64) {
	b.check(len(host), "ToDevice")
	if d.opts.TransferLatency > 0 {
		time.Sleep(d.opts.TransferLatency)
	}
	copy(b.data, host)
	d.statsMu.Lock()
	d.toDevice += int64(8 * len(host))
	d.statsMu.Unlock()
}

// FromDevice copies the buffer into host (cudaMemcpy
// device-to-host).
func (d *Device) FromDevice(host []float64, b *Buffer) {
	b.check(len(host), "FromDevice")
	if d.opts.TransferLatency > 0 {
		time.Sleep(d.opts.TransferLatency)
	}
	copy(host, b.data)
	d.statsMu.Lock()
	d.fromDev += int64(8 * len(b.data))
	d.statsMu.Unlock()
}

// Kernel is a device function invoked once per work item with the
// item index and the launch's buffer arguments (device views).
type Kernel func(i int, args [][]float64)

// Launch executes kernel over n work items on the device's compute
// units and blocks until completion — a synchronous kernel launch.
// Buffers must belong to this device. A panic in the kernel re-panics
// on the launcher; LaunchCtx surfaces it as an error instead.
func (d *Device) Launch(n int, kernel Kernel, args ...*Buffer) {
	if err := d.LaunchCtx(context.Background(), n, kernel, args...); err != nil {
		var pe *sched.PanicError
		if errors.As(err, &pe) {
			panic(fmt.Sprintf("offload: kernel panicked: %v", pe.Value))
		}
		panic(fmt.Sprintf("offload: launch failed: %v", err))
	}
}

// LaunchCtx is Launch with cooperative cancellation: once ctx is done
// remaining work items are skipped at chunk boundaries, in-flight
// items drain, and the context's error is returned. A panic in the
// kernel cancels the launch and is returned as a *sched.PanicError.
// The device remains usable afterwards.
func (d *Device) LaunchCtx(ctx context.Context, n int, kernel Kernel, args ...*Buffer) error {
	views := make([][]float64, len(args))
	for i, b := range args {
		if b.dev != d {
			panic(fmt.Sprintf("offload: buffer of device %s passed to %s", b.dev.name, d.name))
		}
		if b.free {
			panic("offload: Launch with freed buffer")
		}
		views[i] = b.data
	}
	d.statsMu.Lock()
	d.launches++
	d.workItems += int64(n)
	d.statsMu.Unlock()
	return d.pool.RunCtx(ctx, func(c *worksteal.Ctx) {
		c.ForEach(0, n, 0, func(_ *worksteal.Ctx, i int) {
			kernel(i, views)
		})
	})
}

// MapDir selects OpenMP-style map semantics.
type MapDir int

const (
	// MapTo copies host data in before the region (map(to:...)).
	MapTo MapDir = 1 << iota
	// MapFrom copies device data out after the region (map(from:...)).
	MapFrom
	// MapToFrom does both (map(tofrom:...)).
	MapToFrom = MapTo | MapFrom
	// MapAlloc allocates uninitialized device storage (map(alloc:...)).
	MapAlloc MapDir = 0
)

// Mapping binds one host slice to map semantics for a target region.
type Mapping struct {
	Host []float64
	Dir  MapDir
}

// Target runs body with device buffers mapped from the given host
// slices, implementing the OpenMP target-region data environment:
// alloc/to copies in as requested, body runs with the device buffers,
// from/tofrom copies out, and all buffers are freed — regardless of
// how body returns. A panic in body re-panics after cleanup;
// TargetCtx surfaces it as an error instead.
func (d *Device) Target(maps []Mapping, body func(bufs []*Buffer)) {
	if err := d.TargetCtx(context.Background(), maps, body); err != nil {
		var pe *sched.PanicError
		if errors.As(err, &pe) {
			panic(fmt.Sprintf("offload: target region panicked: %v", pe.Value))
		}
		panic(fmt.Sprintf("offload: target region failed: %v", err))
	}
}

// TargetCtx is Target with cooperative cancellation and structured
// error propagation. If ctx is done before the region starts, nothing
// is mapped and the context's error is returned. If the region is
// canceled while body runs (or body panics), the from/tofrom copy-out
// is skipped — the device data is not known to be complete — but all
// buffers are still freed, and the first failure (the context's error
// or the panic as a *sched.PanicError) is returned. The device
// remains usable afterwards.
func (d *Device) TargetCtx(ctx context.Context, maps []Mapping, body func(bufs []*Buffer)) error {
	reg := sched.NewRegion(ctx)
	if reg.Canceled() {
		return reg.Finish()
	}
	bufs := make([]*Buffer, len(maps))
	for i, mp := range maps {
		bufs[i] = d.Alloc(len(mp.Host))
		if mp.Dir&MapTo != 0 {
			d.ToDevice(bufs[i], mp.Host)
		}
	}
	defer func() {
		copyOut := !reg.Canceled()
		for i, mp := range maps {
			if copyOut && mp.Dir&MapFrom != 0 {
				d.FromDevice(mp.Host, bufs[i])
			}
			bufs[i].Free()
		}
	}()
	func() {
		defer func() {
			if r := recover(); r != nil {
				reg.RecordPanic(r)
			}
		}()
		body(bufs)
	}()
	return reg.Finish()
}
