package main

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.2, 10}, {0.21, 20}, {0.5, 30}, {0.99, 50}, {1, 50},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99: exactly one sample lies beyond it", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples must be NaN, not a number that could be reported")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The acceptance rule computes spreads with Python's
// statistics.quantiles(values, n=4); these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1}, 0, 6},
		{[]float64{3, 1, 4, 1, 5, 9, 2}, 1, 5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfTimesSumToTheOperation(t *testing.T) {
	spans := []span{
		{Name: "op", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 60},
		{Name: "b", ID: 2, Parent: 0, Start: 50, End: 80}, // overlaps a by 10
		{Name: "a.child", ID: 3, Parent: 1, Start: 20, End: 30},
	}
	self := selfTimes(spans)
	if want := []int64{30, 40, 30, 10}; !reflect.DeepEqual(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}

	// chain clips children to their parents, so one operation's self
	// times sum to its duration whatever the raw stamps were.
	log := newSpanLog()
	at := func(us int) time.Time { return log.epoch.Add(time.Duration(us) * time.Microsecond) }
	log.chain("steal", "sum",
		[]string{spanOp, spanRequest, spanHandler, spanBody},
		[]time.Time{at(0), at(40), at(45), at(45)},
		[]time.Time{at(300), at(300), at(280), at(900)}) // ideal body longer than its parent
	var sum int64
	for _, s := range selfTimes(log.spans) {
		if s < 0 {
			t.Errorf("negative self time %d", s)
		}
		sum += s
	}
	if op := log.spans[0]; sum != op.End-op.Start {
		t.Errorf("self times sum to %d ns, operation took %d ns", sum, op.End-op.Start)
	}
	if got := summariseSpans(log.spans); len(got) != 4 || got[1].Layer != spanRequest || float64(got[1].SelfUS) != 25 {
		t.Errorf("summary = %+v; want 4 layers and a 25 us envelope", got)
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	const rate, d = 2000.0, time.Second
	a, b := makeSchedule(42, rate, d, serveKinds), makeSchedule(42, rate, d, serveKinds)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, makeSchedule(43, rate, d, serveKinds)) {
		t.Fatal("two seeds gave the same schedule")
	}
	if n := float64(len(a)); math.Abs(n-rate) > 5*math.Sqrt(rate) {
		t.Errorf("%v arrivals in 1 s at %v/s", n, rate)
	}
	seen := make([]int, len(serveKinds))
	for i, x := range a {
		if x.due < 0 || x.due >= d || (i > 0 && x.due < a[i-1].due) {
			t.Fatalf("arrival %d due at %v: not an increasing offset inside the slice", i, x.due)
		}
		seen[x.kind]++
	}
	for k, kind := range serveKinds {
		if got := float64(seen[k]) / float64(len(a)); math.Abs(got-kind.share) > 0.05 {
			t.Errorf("kind %s drawn with share %.3f, want %.3f", kind.name, got, kind.share)
		}
	}
	if roundSeed(1, 0) == roundSeed(1, 1) || roundSeed(1, 0) == roundSeed(2, 0) {
		t.Error("round seeds must differ by round and by run seed")
	}
}

func TestRotationPutsEveryFamilyInEveryPosition(t *testing.T) {
	if got := rotation(1); got != [3]int{1, 2, 0} {
		t.Errorf("rotation(1) = %v, want B C A", got)
	}
	var at [len(families)][len(families)]int // [family][position]
	for r := 0; r < rounds; r++ {
		for pos, f := range rotation(r) {
			at[f][pos]++
		}
	}
	for f := range at {
		for pos := range at[f] {
			if at[f][pos] != rounds/len(families) {
				t.Errorf("family %d ran in position %d %d times in %d rounds", f, pos, at[f][pos], rounds)
			}
		}
	}
	if rounds < 4 {
		t.Errorf("%d measured rounds; the benchmark promises at least 4", rounds)
	}
}

func TestOutstandingCountsOverlapOnce(t *testing.T) {
	t0 := time.Now()
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	out := []outcome{
		{start: at(300), end: at(400)}, // alone, and out of order
		{start: at(0), end: at(100)},
		{start: at(50), end: at(120)}, // overlaps the one before by 50
		{start: at(60), end: at(90)},  // inside both
	}
	if got, want := outstanding(out), 220*time.Microsecond; got != want {
		t.Errorf("outstanding = %v, want %v", got, want)
	}
}

func TestCalmKeepsQuietSlicesOrTheLeastDisturbedHalf(t *testing.T) {
	for _, c := range []struct {
		steal []float64
		want  []int
	}{
		{[]float64{0, 0, 0, 0}, []int{0, 1, 2, 3}},         // a host that reports no steal: every slice counts
		{[]float64{0.01, 0.4, 0.02, 0}, []int{0, 2, 3}},    // a neighbour's burst is dropped
		{[]float64{0.3, 0.2, 0.5, 0.25}, []int{1, 3}},      // all disturbed: the least disturbed half
		{[]float64{0.3, 0.01, 0.5}, []int{0, 1}},           // odd count: at least half
		{[]float64{0.2, 0.2, 0.2, 0.2}, []int{0, 1, 2, 3}}, // ties at the cut all stay
	} {
		if got := calm(c.steal); !reflect.DeepEqual(got, c.want) {
			t.Errorf("calm(%v) = %v, want %v", c.steal, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "op_p50_us.steal", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "work_per_s.steal", Better: "higher", Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	wide := []float64{100, 140, 70, 100, 150, 60, 100, 130, 80, 100}
	scale := func(xs []float64, k float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * k
		}
		return out
	}
	for _, c := range []struct {
		m    metricSpec
		a, b []float64
		want string
	}{
		{lower, tight, scale(tight, 1.05), "ok"},
		{lower, tight, scale(tight, 1.2), "regressed"},
		{lower, tight, scale(tight, 0.5), "ok"}, // better is never a regression
		{higher, tight, scale(tight, 0.8), "regressed"},
		{higher, tight, scale(tight, 1.3), "ok"},
		{lower, wide, scale(wide, 1.2), "unresolved"},
	} {
		if _, _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s x%.2f: %s, want %s", c.m.Name, c.b[0]/c.a[0], got, c.want)
		}
	}
}

// skipper is an executor that silently drops the last chunk of every
// loop and the last element of every reduction: the wrong results the
// checks exist to catch.
type skipper struct{ executor }

func (s skipper) ParallelForCtx(ctx context.Context, lo, hi, grain int, body func(l, h int)) error {
	return s.executor.ParallelForCtx(ctx, lo, hi-1, grain, body)
}

func (s skipper) ParallelReduceCtx(ctx context.Context, lo, hi, grain int, identity float64,
	body func(l, h int, acc float64) float64, combine func(a, b float64) float64) (float64, error) {
	return s.executor.ParallelReduceCtx(ctx, lo, hi-1, grain, identity, body, combine)
}

func TestWrongResultsAreCounted(t *testing.T) {
	inst, err := buildLoops(1, 2, 1<<12, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	s := inst.series[0].(*loopSeries)
	if rs := s.run(time.Millisecond, 0, nil); rs.failed != 0 || rs.attempted == 0 {
		t.Fatalf("honest runtime: %d failed of %d: %v", rs.failed, rs.attempted, rs.errs)
	}
	s.ex = skipper{s.ex}
	// Without this the skipped element could still hold the honest
	// run's last value, which is right whenever both slices happen to
	// end on the same coefficient.
	clear(s.in.out)
	rs := s.run(time.Millisecond, 0, nil)
	// Every sum is wrong; a skipped axpy element is seen by the full
	// check at the end of the slice even when the probes miss it.
	if rs.failed < rs.attempted/2+1 {
		t.Errorf("skipping runtime: only %d failed of %d", rs.failed, rs.attempted)
	}
	if rs.good+rs.failed < rs.attempted {
		t.Errorf("%d good + %d failed < %d attempted", rs.good, rs.failed, rs.attempted)
	}
}

// TestSmoke runs every workload in both modes for a fraction of a
// second, and the layer probes once, and holds the results against
// BENCHMARK.json: every listed metric measured, nothing unlisted, every
// value finite, no operation failed. Full-length runs happen only
// through the command.
func TestSmoke(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%s lists %d workloads, the code has %d", specFile, len(sp.Workloads), len(workloads))
	}
	const seed, seconds, threads = 11, 0.3, 2
	probed, err := runProbes(threads, seconds/fullSeconds, 75*time.Millisecond, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, listed := range sp.Workloads {
		w, err := findWorkload(listed.Name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(w.name, func(t *testing.T) {
			var share float64
			for _, k := range w.kinds {
				share += k.share
			}
			if math.Abs(share-1) > 1e-12 {
				t.Errorf("mix shares sum to %v", share)
			}
			e2e, err := endToEnd(w, seed, seconds, 1)
			if err != nil {
				t.Fatal(err)
			}
			layers, err := workloadPass(w, seed, 150*time.Millisecond, threads)
			if err != nil {
				t.Fatal(err)
			}
			for name, v := range probed {
				layers.metrics[name] = v
			}
			for i, res := range []*runResult{e2e, layers} {
				traced := i == 1
				if res.failed != 0 || res.attempted < 1 {
					t.Errorf("traced=%v: %d failed of %d: %v", traced, res.failed, res.attempted, res.errors)
				}
				if _, err := report(sp.list(traced), res.metrics); err != nil {
					t.Errorf("traced=%v: %v", traced, err)
				}
			}
			if len(layers.log.spans) == 0 {
				t.Error("the traced rounds recorded no spans")
			}
		})
	}
}
