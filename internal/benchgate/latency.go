package benchgate

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"

	"threading/internal/loadgen"
	"threading/internal/serve"
)

// warmBurst is the number of closed-loop requests driven through each
// freshly booted server before its measured points, so no series pays
// the runtime's boot cost (worker spin-up, first-touch of the kernel
// working set) while its comparison twins run warm.
const warmBurst = 64

// seedStride separates the per-server arrival-schedule seeds when a
// point is measured concurrently, so the servers' Poisson schedules
// are decorrelated: identical seeds would fire every arrival at the
// same instant and serialize the servers on a small machine.
const seedStride = 1000003

// LatencySuiteConfig sizes RunLatencySuite.
type LatencySuiteConfig struct {
	// Requests is the number of arrivals per series; 0 selects 2000.
	// The first tenth are warm-up, excluded from the measurements. A
	// p99 over n samples is decided by its n/100 worst requests: on a
	// 2-vCPU guest, one shared scheduling hiccup swung a parity ratio
	// to 8.5x at 300 arrivals, while at 2000 the ratios stayed within
	// 0.36-2.78 over ten runs.
	Requests int
	// WorkSize is the kernel working-set knob (serve.Config.WorkSize);
	// 0 keeps the serve default.
	WorkSize int
}

// RunLatencySuite measures the given service series and returns their
// per-request latencies, with goodput, shed rate and the peak
// admission-queue depth alongside. Each distinct (model, threads)
// is one in-process threadserve driven through loadgen — no sockets,
// so the measured latency is admission + scheduling + kernel
// execution.
//
// All servers boot (and warm) up front, and each offered-load point is
// measured across its series concurrently: one open-loop arrival
// stream per series over the same wall-clock window, issued by one
// loadgen dispatcher. The invariants are ratios between series at the
// same point, and a sequential series-after-series sweep hands each a
// different position in machine-wide drift; sharing the window makes
// drift and noise bursts common-mode. The combined offered load stays
// far below the service rate, so cross-server contention is
// second-order and symmetric.
//
// Canceling ctx abandons the in-flight point and returns ctx's error.
func RunLatencySuite(ctx context.Context, keys []Key, cfg LatencySuiteConfig) (*Report, error) {
	if cfg.Requests <= 0 {
		cfg.Requests = 2000
	}
	type runtimeKey struct {
		model   string
		threads int
	}
	servers := make(map[runtimeKey]*serve.Server)
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	var points []int
	byPoint := make(map[int][]Key)
	for _, k := range keys {
		rk := runtimeKey{k.Model, k.Threads}
		if servers[rk] == nil {
			s, err := serve.New(serve.Config{Model: k.Model, Threads: k.Threads, WorkSize: cfg.WorkSize})
			if err != nil {
				return nil, fmt.Errorf("benchgate: boot %s: %w", k.Model, err)
			}
			servers[rk] = s
			if err := warm(ctx, s, path(k)); err != nil {
				return nil, err
			}
		}
		if byPoint[k.Offered] == nil {
			points = append(points, k.Offered)
		}
		byPoint[k.Offered] = append(byPoint[k.Offered], k)
	}

	rep := &Report{}
	for _, point := range points {
		ks := byPoint[point]
		srvs := make([]*serve.Server, len(ks))
		for i, k := range ks {
			srvs[i] = servers[runtimeKey{k.Model, k.Threads}]
		}
		if err := runLatencyPoint(ctx, cfg, rep, ks, srvs); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func path(k Key) string { return "/run?kernel=" + k.Kernel }

// warm drives warmBurst closed-loop requests through the server so a
// freshly booted runtime's spin-up cost never lands in a measured
// point. Outcomes are ignored; the per-series open-loop warm-up still
// applies on top.
func warm(ctx context.Context, h http.Handler, path string) error {
	for i := 0; i < warmBurst; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx))
	}
	return nil
}

// runLatencyPoint measures one offered-load point: one open-loop
// arrival stream per series, decorrelated schedules, one shared
// wall-clock window. It appends the completed series to rep.
func runLatencyPoint(ctx context.Context, cfg LatencySuiteConfig, rep *Report, keys []Key, srvs []*serve.Server) error {
	points := make([]loadgen.Config, len(keys))
	for i, k := range keys {
		srvs[i].Stats(true) // reset the peak-depth watermark for this point
		points[i] = loadgen.Config{
			Handler:  srvs[i],
			Path:     path(k),
			Offered:  float64(k.Offered),
			Requests: cfg.Requests,
			Warmup:   cfg.Requests / 10,
			Seed:     1 + uint64(i)*seedStride,
		}
	}
	results, err := loadgen.Run(ctx, points...)
	if err != nil {
		return err
	}
	for i, k := range keys {
		res := results[i]
		if len(res.LatencyNs) == 0 {
			return fmt.Errorf("benchgate: %s completed no requests (%d shed, %d timeouts, %d errors)",
				k, res.Shed, res.Timeouts, res.Errors)
		}
		rep.Add(Series{
			Key:        k,
			SampleNs:   res.LatencyNs,
			Goodput:    res.Goodput(),
			ShedRate:   res.ShedRate(),
			QueueDepth: int(srvs[i].Stats(false).PeakDepth),
		})
	}
	return nil
}
