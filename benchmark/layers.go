package main

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Layer probes: each times calls into one layer's public functions
// from outside, with no workload around it, so a regression is
// attributed to a primitive and not to a kernel. They are the same in
// every traced run, whatever the workload. README.md lists, for each,
// the end-to-end metric it should move and on which workload.

// probes collects per-layer metric values by name.
type probes map[string]float64

// reps scales a full-length repetition count down for short runs
// (tests), never below 8.
func reps(n int, scale float64) int { return max(int(float64(n)*scale), 8) }

// p50NS returns the median time of n calls of fn, in nanoseconds. An
// optional gap is slept, untimed, before each call.
func p50NS(n int, fn func(), gap ...time.Duration) float64 {
	ts := make([]float64, n)
	for i := range ts {
		for _, g := range gap {
			time.Sleep(g)
		}
		t0 := time.Now()
		fn()
		ts[i] = float64(time.Since(t0).Nanoseconds())
	}
	return percentile(ts, 0.5)
}

const (
	handoutChunks = 4096 // chunks per region in the hand-out probes
	handoutGrain  = 64
	idleGap       = 5 * time.Millisecond
	treeDepth     = 10 // empty binary tree: 1023 spawns
	submitBatch   = 1000
	dequeBatch    = 1024
)

func nothing(l, h int) {}

// probeRegions times region entry and chunk hand-out on the loop
// runtime of every family, and the lazy and Model-surface variants of
// the work-stealing one.
func probeRegions(threads int, scale float64, out probes) error {
	ctx := context.Background()
	empty := func(ex executor) func() {
		return func() { _ = ex.ParallelForCtx(ctx, 0, threads, 0, nothing) } // cannot fail: background context, body does not panic
	}
	chunked := func(ex executor) func() {
		return func() { _ = ex.ParallelForCtx(ctx, 0, handoutChunks*handoutGrain, handoutGrain, nothing) }
	}
	for _, f := range families {
		ex, err := newExecutor(f.loop, threads, plain)
		if err != nil {
			return err
		}
		p50NS(reps(200, scale), empty(ex)) // discarded warm-up
		hot := p50NS(reps(2000, scale), empty(ex))
		region := empty(ex)
		idle := p50NS(reps(40, scale), func() { region() }, idleGap)
		out["region.empty_us."+f.name] = hot / 1e3
		out["region.idle_us."+f.name] = idle / 1e3
		out["wake.penalty_us."+f.name] = (idle - hot) / 1e3
		if f.name != "thread" { // the thread family ignores grain
			out["handout.chunk_ns."+f.name] = (p50NS(reps(300, scale), chunked(ex)) - hot) / handoutChunks
		}
		for i := 0; i < submitBatch/10; i++ {
			_ = ex.SubmitCtx(ctx, func() {}) // warm-up; failures surface in Quiesce below
		}
		if err := ex.Quiesce(); err != nil {
			return err
		}
		out["submit.task_ns."+f.name] = p50NS(reps(30, scale), func() {
			for i := 0; i < submitBatch; i++ {
				_ = ex.SubmitCtx(ctx, func() {})
			}
			_ = ex.Quiesce()
		}) / submitBatch
		if f.name == "steal" {
			lz, err := newExecutor(f.loop, threads, lazy)
			if err != nil {
				return err
			}
			p50NS(reps(50, scale), chunked(lz))
			out["worksteal.lazy.chunk_ns"] = (p50NS(reps(300, scale), chunked(lz)) - p50NS(reps(500, scale), empty(lz))) / handoutChunks
			lz.Close()

			m, err := newModelLoop(f.loop, threads)
			if err != nil {
				return err
			}
			viaModel := func() { _ = m.ParallelForCtx(ctx, threads, nothing) }
			p50NS(reps(200, scale), viaModel)
			out["models.model_vs_executor_ratio"] = p50NS(reps(2000, scale), viaModel) / hot
			m.Close()
		}
		ex.Close()
	}
	return nil
}

func emptyTree(s taskScope, depth int) {
	if depth == 0 {
		return
	}
	s.Spawn(func(c taskScope) { emptyTree(c, depth-1) })
	emptyTree(s, depth-1)
	s.Sync()
}

// probeSpawn times one spawn+sync on every family's task runtime: an
// empty binary tree over its spawn count.
func probeSpawn(threads int, scale float64, out probes) error {
	ctx := context.Background()
	for _, f := range families {
		m, err := newTaskRunner(f.task, threads)
		if err != nil {
			return err
		}
		tree := func() { _ = m.TaskRunCtx(ctx, func(s taskScope) { emptyTree(s, treeDepth) }) }
		p50NS(reps(20, scale), tree)
		out["spawn.task_ns."+f.name] = p50NS(reps(200, scale), tree) / (1<<treeDepth - 1)
		m.Close()
	}
	return nil
}

// probeDeques times the owner and thief operations of both deque
// backends, uncontended: nanoseconds per push+pop pair, and per
// element drained from a full deque by Steal and by StealHalf.
func probeDeques(scale float64, out probes) {
	items := make([]dequeItem, dequeBatch)
	buf := make([]*dequeItem, 32)
	n := reps(400, scale)
	for _, kind := range []struct {
		name   string
		locked bool
	}{{"chaselev", false}, {"locked", true}} {
		d := newDeque(kind.locked)
		fill := func() {
			for i := range items {
				d.PushBottom(&items[i])
			}
		}
		// drain fills the deque untimed, then times emptying it.
		drain := func(take func() bool) float64 {
			ts := make([]float64, n)
			for i := range ts {
				fill()
				t0 := time.Now()
				for take() {
				}
				ts[i] = float64(time.Since(t0).Nanoseconds())
			}
			return percentile(ts, 0.5) / dequeBatch
		}
		pop := func() bool { return d.PopBottom() != nil }
		drain(pop) // discarded: grows the ring to its working size
		out["deque."+kind.name+".pushpop_ns"] = p50NS(n, func() {
			fill()
			for pop() {
			}
		}) / dequeBatch
		out["deque."+kind.name+".steal_ns"] = drain(func() bool { return d.Steal() != nil })
		out["deque."+kind.name+".stealhalf_ns"] = drain(func() bool { return d.StealHalf(buf) > 0 })
	}
}

// probeBarriers times one barrier episode with `threads` parties.
func probeBarriers(threads int, scale float64, out probes) {
	episodes := reps(20000, scale)
	for _, kind := range []struct {
		name    string
		central bool
	}{{"sense", false}, {"central", true}} {
		b := newBarrier(kind.central, threads)
		var wg sync.WaitGroup
		t0 := time.Now()
		for p := 0; p < threads; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < episodes; i++ {
					b.Wait()
				}
			}()
		}
		wg.Wait()
		out["syncprim."+kind.name+"_barrier_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(episodes)
	}
}

// probeFutures times the thread-per-task family's primitives.
func probeFutures(scale float64, out probes) error {
	var failed error
	n := reps(3000, scale)
	out["futures.thread_spawn_join_ns"] = p50NS(n, func() { threadSpawnJoin(func() {}) })
	out["futures.async_get_ns"] = p50NS(n, func() {
		if _, err := asyncGet(func() (int, error) { return 1, nil }); err != nil {
			failed = err
		}
	})
	out["futures.promise_set_get_ns"] = p50NS(n, func() {
		if v, err := promiseSetGet(7); err != nil || v != 7 {
			failed = fmt.Errorf("promise returned %d, %v", v, err)
		}
	})
	return failed
}

// probeShard runs the loops-fine sum on a 2-shard least-loaded
// resolver over the work-stealing runtime and on its single-pool twin.
func probeShard(threads int, scale float64, out probes) error {
	ctx := context.Background()
	x := make([]float64, fineN)
	for i := range x {
		x[i] = 1
	}
	var p50 [2]float64
	for i, v := range []execVariant{plain, sharded} {
		ex, err := newExecutor("cilk_for", threads, v)
		if err != nil {
			return err
		}
		var wrong error
		op := func() {
			got, err := ex.ParallelReduceCtx(ctx, 0, fineN, fineGrain, 0, sumBody(x), add)
			if err != nil || got != fineN {
				wrong = fmt.Errorf("sharded probe sum = %v, %v", got, err)
			}
		}
		p50NS(reps(50, scale), op)
		p50[i] = p50NS(reps(600, scale), op)
		ex.Close()
		if wrong != nil {
			return wrong
		}
	}
	out["shard.op_p50_us"] = p50[1] / 1e3
	out["shard.overhead_ratio"] = p50[1] / p50[0]
	return nil
}

// callers runs n closed-loop callers against h for d, each drawing
// request kinds from its own seeded stream, and returns completed
// requests per second.
func callers(h server, n int, d time.Duration, seed uint64) float64 {
	var wg sync.WaitGroup
	done := make([]int, n)
	t0 := time.Now()
	deadline := t0.Add(d)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sched := makeSchedule(seed+uint64(c), 1000, time.Second, serveKinds)
			ok := 0 // counted locally: adjacent done[c] cells would share a cache line
			for i := 0; time.Now().Before(deadline); i++ {
				if code, _, err := get(h, serveURLs[sched[i%len(sched)].kind]); err == nil && code == 200 {
					ok++
				}
			}
			done[c] = ok
		}()
	}
	wg.Wait()
	total := 0
	for _, k := range done {
		total += k
	}
	return float64(total) / time.Since(t0).Seconds()
}

// probeServe measures the server by itself: unloaded latency per
// request kind, the envelope around the handler, closed-loop capacity,
// shedding under overload, and the cost of the telemetry layer. budget
// is the wall time the capacity, overload and telemetry parts share.
func probeServe(threads int, scale float64, budget time.Duration, seed uint64, out probes) error {
	inst, err := buildServe(threads, serveLightRPS, serveQueue, false)
	if err != nil {
		return err
	}
	defer inst.close()
	part := budget / 10
	var env []float64
	capacity := make([]float64, len(families))
	for f, fam := range families {
		s := inst.series[f].(*serveSeries)
		if err := s.warm(); err != nil {
			return err
		}
		for k, kind := range serveKinds {
			var lat []float64
			for i := 0; i < reps(60, scale); i++ {
				t0 := time.Now()
				code, rep, err := get(s.h, serveURLs[k])
				d := time.Since(t0)
				if wrong := s.check(k, outcome{code: code, rep: rep, err: err}); wrong != "" {
					return fmt.Errorf("serve probe %s %s: %s", fam.name, serveURLs[k], wrong)
				}
				lat = append(lat, float64(d.Nanoseconds())/1e3)
				env = append(env, float64(d.Nanoseconds()-rep.NS)/1e3)
			}
			out["serve.kind_p50_us."+kind.name+"."+fam.name] = percentile(lat, 0.5)
		}
		capacity[f] = callers(s.h, 2*threads, part, seed)
		out["serve.capacity_rps."+fam.name] = capacity[f]
	}
	out["serve.envelope_p50_us"] = percentile(env, 0.5)

	// Overload: open loop at 1.5x the capacity just measured, against
	// the server's default admission queue, so 429 and 504 are
	// exercised without touching the workloads' fail counts.
	over, err := buildServe(threads, 0, 0, false)
	if err != nil {
		return err
	}
	defer over.close()
	for f, fam := range families {
		s := over.series[f].(*serveSeries)
		if err := s.warm(); err != nil {
			return err
		}
		s.rate = 1.5 * capacity[f]
		rs := s.run(part, seed, nil)
		st, err := s.statz(false)
		if err != nil {
			return err
		}
		out["serve.shed_share_overload."+fam.name] = float64(st.Shed+st.Timeouts) / float64(max(rs.attempted, 1))
	}

	// Telemetry: the work-stealing server at the light rate, with the
	// metrics layer on and off, in alternating slices.
	on, err := buildServe(threads, serveLightRPS, serveQueue, true)
	if err != nil {
		return err
	}
	defer on.close()
	pair := [2]*serveSeries{inst.series[1].(*serveSeries), on.series[1].(*serveSeries)}
	if err := pair[1].warm(); err != nil {
		return err
	}
	var rs [2][]roundSamples
	for i := 0; i < 4; i++ {
		side := i % 2
		rs[side] = append(rs[side], pair[side].run(part, seed+uint64(i/2), nil))
	}
	out["serve.metrics_overhead_ratio"] = mixP50(serveKinds, rs[1]...) / mixP50(serveKinds, rs[0]...)
	return nil
}

// runProbes runs every workload-independent layer probe.
func runProbes(threads int, scale float64, serveBudget time.Duration, seed uint64) (probes, error) {
	out := probes{}
	if err := probeRegions(threads, scale, out); err != nil {
		return nil, err
	}
	if err := probeSpawn(threads, scale, out); err != nil {
		return nil, err
	}
	probeDeques(scale, out)
	probeBarriers(threads, scale, out)
	if err := probeFutures(scale, out); err != nil {
		return nil, err
	}
	if err := probeShard(threads, scale, out); err != nil {
		return nil, err
	}
	if err := probeServe(threads, scale, serveBudget, seed, out); err != nil {
		return nil, err
	}
	return out, nil
}
