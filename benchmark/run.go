package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// fullSeconds is the run length the frozen repetition counts of the
// layer probes were sized for; shorter runs scale them down.
const fullSeconds = 20.0

// runResult is what one run of the benchmark produced.
type runResult struct {
	metrics   map[string]float64
	attempted int
	failed    int
	errors    []string
	detail    map[string]any // written to the detail file, not to stdout
	log       *spanLog       // traced runs only
}

func (r *runResult) count(sums [len(families)]famSummary) {
	for _, s := range sums {
		r.attempted += s.Attempted
		r.failed += s.Failed
		r.errors = append(r.errors, s.Errors...)
	}
}

func summariseAll(w *workload, rs [len(families)][]roundSamples) (out [len(families)]famSummary) {
	for f := range families {
		out[f] = summarise(w, rs[f])
	}
	return out
}

func untraced(int) *spanLog { return nil }

// endToEnd is the untraced run: set-up (timed, setups times), then
// `rounds` rotated rounds, then the end-to-end metrics.
func endToEnd(w *workload, seed uint64, seconds float64, setups int) (*runResult, error) {
	inst, setupAll, setupS, err := setUpTimed(w, seed, runtime.GOMAXPROCS(0), setups)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	rs := measureRounds(inst, time.Duration(seconds*float64(time.Second)), rounds, seed, untraced)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	sums := summariseAll(w, rs)
	res := &runResult{
		metrics: map[string]float64{"setup_s": setupS, "peak_rss_mb": rss},
		detail:  map[string]any{"setup_s_all": setupAll, "families": famDetail(sums)},
	}
	for f, fam := range families {
		res.metrics["op_p50_us."+fam.name] = sums[f].P50US
		res.metrics["op_p95_us."+fam.name] = sums[f].P95US
		res.metrics["work_per_s."+fam.name] = sums[f].WorkPerS
	}
	res.count(sums)
	return res, nil
}

func famDetail(sums [len(families)]famSummary) map[string]famSummary {
	out := map[string]famSummary{}
	for f, fam := range families {
		out[fam.name] = sums[f]
	}
	return out
}

// tracedRounds is the number of rounds of the traced run's workload
// pass; even rounds are untraced, odd rounds record spans, so the two
// halves see the same drift.
const tracedRounds = 6

// perLayer is the traced run: the layer probes, which are the same
// for every workload, then the workload pass.
func perLayer(w *workload, seed uint64, seconds float64) (*runResult, error) {
	threads := runtime.GOMAXPROCS(0)
	probed, err := runProbes(threads, math.Min(seconds/fullSeconds, 1),
		time.Duration(0.25*seconds*float64(time.Second)), seed)
	if err != nil {
		return nil, err
	}
	res, err := workloadPass(w, seed, time.Duration(0.45*seconds*float64(time.Second)), threads)
	if err != nil {
		return nil, err
	}
	for name, v := range probed {
		res.metrics[name] = v
	}
	return res, nil
}

// workloadPass runs the workload with untraced and traced rounds
// interleaved, for about total, and derives the per-layer metrics that
// depend on the workload.
func workloadPass(w *workload, seed uint64, total time.Duration, threads int) (*runResult, error) {
	m := map[string]float64{}
	inst, err := setUp(w, seed, threads)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	seqUS := inst.seqUS
	log := newSpanLog()
	rs := measureRounds(inst, total, tracedRounds, seed, func(round int) *spanLog {
		if round%2 == 1 {
			return log
		}
		return nil
	})
	var plainRS, tracedRS [len(families)][]roundSamples
	for f := range families {
		for r, x := range rs[f] {
			if r%2 == 1 {
				tracedRS[f] = append(tracedRS[f], x)
			} else {
				plainRS[f] = append(plainRS[f], x)
			}
		}
	}
	counted := rs
	m["serve.queue_peak"] = 0
	if w.rate > 0 {
		for _, s := range inst.series {
			st, err := s.(*serveSeries).statz(false)
			if err != nil {
				return nil, err
			}
			m["serve.queue_peak"] = math.Max(m["serve.queue_peak"], float64(st.PeakDepth))
		}
		// The workload's servers run without telemetry, so they export
		// no scheduler counters; a telemetry-on twin serves one extra
		// round for the counts alone.
		twin, err := buildServe(threads, w.rate, serveQueue, true)
		if err != nil {
			return nil, err
		}
		defer twin.close()
		for _, s := range twin.series {
			if err := s.warm(); err != nil {
				return nil, err
			}
		}
		counted = measureRounds(twin, total/tracedRounds, 1, seed, untraced)
	}

	all, plainSum, tracedSum := summariseAll(w, rs), summariseAll(w, plainRS), summariseAll(w, tracedRS)
	res := &runResult{metrics: m, log: log}
	res.count(all)

	var seqMix float64
	for k, kind := range w.kinds {
		seqMix += kind.share * seqUS[k]
	}
	m["kernels.seq_p50_us"] = seqMix
	inner := innerP50(log.spans)
	var ratios, late, steal []float64
	for f, fam := range families {
		// Pooled over each half's rounds: a ratio of two medians of three
		// per-round values would be mostly round-to-round noise.
		ratios = append(ratios, mixP50(w.kinds, tracedRS[f]...)/mixP50(w.kinds, plainRS[f]...))
		m["speedup."+fam.name] = seqMix / plainSum[f].P50US
		// The p99 is a per-layer metric on this box (README.md, "Metrics
		// that moved"); its sample count is reported beside it.
		m["op_p99_us."+fam.name] = float64(all[f].P99US)
		m["driver.samples."+fam.name] = float64(all[f].Samples)
		var share float64
		for k, kind := range w.kinds {
			ideal := seqUS[k] / float64(threads)
			share += kind.share * math.Max(0, 1-ideal/inner[spanKey{fam.name, kind.name}])
		}
		m["sched.overhead_share."+fam.name] = share
		var host hostTimes
		var busy time.Duration
		for _, r := range rs[f] {
			late = append(late, r.lateUS...)
			host.cpu, host.wall = host.cpu+r.host.cpu, host.wall+r.host.wall
			busy += r.busy
			steal = append(steal, r.host.stolen())
		}
		m["op.busy_share."+fam.name] = busy.Seconds() / host.wall.Seconds()
		m["cpu.util_share."+fam.name] = host.cpu.Seconds() / (host.wall.Seconds() * float64(threads))
		if fam.name == "thread" {
			continue // no persistent runtime, no counters
		}
		var c counts
		ops := 0
		for _, r := range counted[f] {
			if !r.hasSched {
				return nil, fmt.Errorf("%s: no scheduler counters on the %s series", w.name, fam.name)
			}
			c = c.add(r.sched)
			ops += r.attempted
		}
		per := func(v int64) float64 { return float64(v) / float64(max(ops, 1)) }
		m["sched.chunks_per_op."+fam.name] = per(c.Units)
		m["sched.spawns_per_op."+fam.name] = per(c.Spawns)
		m["sched.steals_per_op."+fam.name] = per(c.Steals)
		m["sched.parks_per_op."+fam.name] = per(c.Parks)
		m["sched.failed_steal_share."+fam.name] = float64(c.FailedSteals) / float64(max(c.FailedSteals+c.Steals, 1))
	}
	m["trace.overhead_ratio"] = median(ratios)
	m["host.steal_share"] = mean(steal)
	m["host.calm_share"] = float64(all[0].Calm+all[1].Calm+all[2].Calm) / float64(len(steal))
	m["fail_share"] = float64(res.failed) / float64(max(res.attempted, 1))
	m["driver.late_p50_us"], m["driver.late_p99_us"] = 0, 0 // a closed loop is never late
	if len(late) > 0 {
		m["driver.late_p50_us"], m["driver.late_p99_us"] = percentile(late, 0.5), percentile(late, 0.99)
	}
	res.detail = map[string]any{
		"families_untraced": famDetail(plainSum),
		"families_traced":   famDetail(tracedSum),
		"layers_self":       summariseSpans(log.spans),
		"seq_us":            nums(seqUS),
	}
	return res, nil
}

type spanKey struct{ series, kind string }

// innerP50 returns, per (series, kind), the median duration in
// microseconds of the innermost observed span: the region on a closed
// loop, the handler on a serve workload.
func innerP50(spans []span) map[spanKey]float64 {
	durs := map[spanKey][]float64{}
	for _, s := range spans {
		if s.Name == spanRegion || s.Name == spanHandler {
			k := spanKey{s.Series, s.Kind}
			durs[k] = append(durs[k], float64(s.End-s.Start)/1e3)
		}
	}
	out := map[spanKey]float64{}
	for k, xs := range durs {
		out[k] = percentile(xs, 0.5)
	}
	return out
}
