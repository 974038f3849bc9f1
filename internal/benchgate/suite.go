package benchgate

import (
	"context"
	"fmt"
	"time"

	"threading/internal/harness"
	"threading/internal/models"
	"threading/internal/worksteal"
)

// kernelFigs maps the kernels the invariants read to the registered
// harness experiments whose workloads they reuse, so the gate
// measures exactly what the paper's figures measure.
var kernelFigs = map[string]string{
	"axpy": "fig1",
	"sum":  "fig2",
	"fib":  "fig5",
}

// SuiteConfig sizes RunSuite.
type SuiteConfig struct {
	// Reps is the number of timed repetitions per series; 0 selects 7
	// (odd, and large enough for the exact U distribution to resolve
	// p < 0.05).
	Reps int
	// Scale is the workload scale factor; 0 selects 0.1 (the gate
	// favors many cheap repetitions over one large run).
	Scale float64
}

func (c SuiteConfig) withDefaults() SuiteConfig {
	if c.Reps <= 0 {
		c.Reps = 7
	}
	if c.Scale <= 0 {
		c.Scale = 0.1
	}
	return c
}

// RunSuite measures the given kernel series and returns their
// repetition timings. Each kernel's figure workload is prepared once
// and shared by its series; every series gets its own model, built
// from its key. After one untimed warm-up per series, the reps run
// round-robin — rep r of every series before rep r+1 of any — so
// machine drift lands on every series alike instead of on whichever
// was measured last. ctx cancels the run at the next repetition
// boundary.
func RunSuite(ctx context.Context, keys []Key, cfg SuiteConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	workloads := make(map[string]*harness.Workload)
	runs := make([]func(), 0, len(keys))
	for _, k := range keys {
		w, err := workload(k.Kernel, cfg.Scale, workloads)
		if err != nil {
			return nil, err
		}
		m, err := newModel(k)
		if err != nil {
			return nil, err
		}
		defer m.Close()
		runs = append(runs, func() { w.Run(m) })
	}
	samples, err := interleave(ctx, runs, cfg.Reps)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	for i, k := range keys {
		rep.Add(Series{Key: k, SampleNs: samples[i]})
	}
	return rep, nil
}

// workload returns the kernel's prepared figure workload, preparing
// it on first use.
func workload(kernel string, scale float64, prepared map[string]*harness.Workload) (*harness.Workload, error) {
	if w, ok := prepared[kernel]; ok {
		return w, nil
	}
	figID, ok := kernelFigs[kernel]
	if !ok {
		return nil, fmt.Errorf("benchgate: unknown kernel %q (have axpy, sum, fib)", kernel)
	}
	e, ok := harness.ByID(figID)
	if !ok {
		return nil, fmt.Errorf("benchgate: experiment %s not registered", figID)
	}
	w := e.Prepare(scale)
	prepared[kernel] = w
	return w, nil
}

// newModel builds the model a kernel key names.
func newModel(k Key) (models.Model, error) {
	part := k.Partitioner
	if part == "-" {
		part = ""
	}
	p, err := worksteal.ParsePartitioner(part)
	if err != nil {
		return nil, err
	}
	return models.New(k.Model, k.Threads,
		models.WithPartitioner(p), models.WithGrain(k.Grain),
		models.WithShardCount(k.Shards), models.WithShardBalancer(k.Balancer),
		models.WithPinnedWorkers(k.Pinned))
}

// interleave runs every function once untimed, then reps rounds in
// which each runs once, in order, timed; it returns each function's
// timings in nanoseconds.
func interleave(ctx context.Context, runs []func(), reps int) ([][]int64, error) {
	for _, run := range runs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		run()
	}
	out := make([][]int64, len(runs))
	for r := 0; r < reps; r++ {
		for i, run := range runs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			start := time.Now()
			run()
			out[i] = append(out[i], time.Since(start).Nanoseconds())
		}
	}
	return out, nil
}
