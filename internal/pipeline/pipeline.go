// Package pipeline implements a TBB-style parallel pipeline — the
// pipelining mechanism the paper's Table I lists for Intel TBB
// (pipeline / parallel_pipeline) and groups with CUDA streams and
// OpenCL pipes as asynchronous-execution constructs.
//
// A pipeline is a linear sequence of stages. Parallel stages process
// any number of items concurrently; serial stages process one item at
// a time, in input order, even when fed out of order by an upstream
// parallel stage (a sequence-numbered reorder buffer restores order,
// as TBB's serial_in_order filters do). The number of items in flight
// is bounded by a token budget, like parallel_pipeline's
// max_number_of_live_tokens.
package pipeline

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"threading/internal/sched"
)

// Mode selects a stage's concurrency discipline.
type Mode int

const (
	// Serial stages process items one at a time, in input order —
	// TBB's serial_in_order.
	Serial Mode = iota
	// Parallel stages process items concurrently, in any order.
	Parallel
)

// String returns the TBB-style name of the mode.
func (m Mode) String() string {
	switch m {
	case Serial:
		return "serial_in_order"
	case Parallel:
		return "parallel"
	default:
		return "unknown"
	}
}

// Func transforms one item. Returning an error aborts the pipeline.
type Func func(v any) (any, error)

// stage is one configured filter.
type stage struct {
	name string
	mode Mode
	fn   Func
}

// Pipeline is a configured sequence of stages. Configure with Add*,
// execute with Run. A Pipeline is reusable but not concurrently
// runnable.
type Pipeline struct {
	stages []stage
}

// New returns an empty pipeline.
func New() *Pipeline { return &Pipeline{} }

// AddSerial appends an in-order serial stage.
func (p *Pipeline) AddSerial(name string, fn Func) *Pipeline {
	p.stages = append(p.stages, stage{name: name, mode: Serial, fn: fn})
	return p
}

// AddParallel appends a concurrent stage.
func (p *Pipeline) AddParallel(name string, fn Func) *Pipeline {
	p.stages = append(p.stages, stage{name: name, mode: Parallel, fn: fn})
	return p
}

// Stages reports the number of configured stages.
func (p *Pipeline) Stages() int { return len(p.stages) }

// item is one unit flowing through the pipeline.
type item struct {
	seq uint64
	v   any
}

// run-wide abort state: the first error wins; subsequent items are
// passed through unprocessed so channels drain without deadlock.
type abort struct {
	flag atomic.Bool
	once sync.Once
	err  error
}

func (a *abort) set(err error) {
	a.once.Do(func() {
		a.err = err
		a.flag.Store(true)
	})
}

// Run pulls items from source until it reports no more, pushes them
// through the stages with at most tokens items in flight and at most
// workers concurrent executions per parallel stage, and hands each
// final value to sink (in order if the last stage is serial). It
// returns the number of items fully processed and the first stage
// error, if any.
func (p *Pipeline) Run(workers, tokens int,
	source func() (any, bool), sink func(v any)) (int, error) {
	return p.RunCtx(context.Background(), workers, tokens, source, sink)
}

// RunCtx is Run with cooperative cancellation: once ctx is done the
// source stops feeding, stage functions stop being applied (items
// already in the channels drain unprocessed, so no token deadlocks),
// and the first failure is returned — the first stage error, a
// *sched.PanicError if a stage function panicked, or the context's
// error. The pipeline remains reusable afterwards.
func (p *Pipeline) RunCtx(ctx context.Context, workers, tokens int,
	source func() (any, bool), sink func(v any)) (int, error) {

	if len(p.stages) == 0 {
		return 0, fmt.Errorf("pipeline: no stages configured")
	}
	if workers < 1 {
		workers = 1
	}
	if tokens < 1 {
		tokens = 1
	}
	ab := &abort{}
	reg := sched.NewRegion(ctx)
	sem := make(chan struct{}, tokens)

	// Channel chain: source -> stage 0 -> ... -> stage k-1 -> sink.
	chans := make([]chan item, len(p.stages)+1)
	for i := range chans {
		chans[i] = make(chan item, tokens)
	}

	var wg sync.WaitGroup
	for i, st := range p.stages {
		in, out := chans[i], chans[i+1]
		switch st.mode {
		case Serial:
			wg.Add(1)
			go runSerial(st, in, out, ab, reg, &wg)
		case Parallel:
			wg.Add(1)
			go runParallel(st, in, out, ab, reg, workers, &wg)
		}
	}

	// Sink: consume final items, release tokens.
	processed := 0
	var sinkWg sync.WaitGroup
	sinkWg.Add(1)
	go func() {
		defer sinkWg.Done()
		for it := range chans[len(chans)-1] {
			if !ab.flag.Load() && !reg.Canceled() {
				sink(it.v)
				processed++
			}
			<-sem
		}
	}()

	// Source: feed until exhausted, aborted, or canceled.
	var seq uint64
	for !ab.flag.Load() && !reg.Canceled() {
		v, ok := source()
		if !ok {
			break
		}
		sem <- struct{}{}
		chans[0] <- item{seq: seq, v: v}
		seq++
	}
	close(chans[0])
	wg.Wait()
	sinkWg.Wait()
	if ab.err != nil {
		reg.Finish()
		return processed, ab.err
	}
	return processed, reg.Finish()
}

// apply runs one stage function on one item, translating failures
// into the run's abort/cancellation state: an error aborts the run, a
// panic is recorded as a *sched.PanicError and cancels the run, and a
// canceled run passes items through unprocessed so channels drain.
func apply(st stage, it item, ab *abort, reg *sched.Region) item {
	if ab.flag.Load() || reg.Canceled() {
		return it
	}
	var v any
	var err error
	panicked := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				reg.RecordPanic(r)
				panicked = true
			}
		}()
		v, err = st.fn(it.v)
	}()
	if panicked {
		return it // PanicError is surfaced through the region
	}
	if err != nil {
		ab.set(fmt.Errorf("pipeline: stage %q: %w", st.name, err))
		return it
	}
	return item{seq: it.seq, v: v}
}

// runSerial processes items strictly in sequence order, buffering
// early arrivals from an out-of-order upstream.
func runSerial(st stage, in <-chan item, out chan<- item, ab *abort, reg *sched.Region, wg *sync.WaitGroup) {
	defer wg.Done()
	defer close(out)
	next := uint64(0)
	pending := make(map[uint64]item)
	for it := range in {
		pending[it.seq] = it
		for {
			nx, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			out <- apply(st, nx, ab, reg)
			next++
		}
	}
	// Upstream closed: anything left is a sequencing hole, which can
	// only happen on abort; flush in arbitrary order to drain tokens.
	for _, it := range pending {
		out <- it
	}
}

// runParallel processes items with a bounded worker group.
func runParallel(st stage, in <-chan item, out chan<- item, ab *abort, reg *sched.Region, workers int, wg *sync.WaitGroup) {
	defer wg.Done()
	var inner sync.WaitGroup
	for w := 0; w < workers; w++ {
		inner.Add(1)
		go func() {
			defer inner.Done()
			for it := range in {
				out <- apply(st, it, ab, reg)
			}
		}()
	}
	inner.Wait()
	close(out)
}
