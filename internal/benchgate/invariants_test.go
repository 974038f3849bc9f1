package benchgate

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"threading/internal/models"
)

// healthyReport holds one series for every key the gate's invariants
// read at the given thread count, consistent with every claim:
// omp_for and lazy cilk_for well ahead of eager cilk_for, pinned and
// sharded within their bounds of it, cilk_spawn ahead of omp task on
// fib, and identical latency distributions across service runtimes.
func healthyReport(threads int) *Report {
	rep := &Report{}
	for _, k := range Keys(Invariants(threads)) {
		if k.Offered != 0 {
			rep.Add(Series{Key: k, SampleNs: []int64{100, 102, 104, 106, 108, 110, 112, 114, 116, 200}})
			continue
		}
		var base int64
		switch {
		case k.Model == models.OMPFor, k.Model == models.CilkSpawn:
			base = 100
		case k.Partitioner == "lazy":
			base = 110
		case k.Model == models.OMPTask:
			base = 200
		case k.Pinned:
			base = 402
		case k.Shards != 0:
			base = 410
		default: // eager cilk_for, the loop claims' common reference
			base = 400
		}
		ns := make([]int64, 7)
		for i := range ns {
			ns[i] = base + int64(i)
		}
		rep.Add(Series{Key: k, SampleNs: ns})
	}
	return rep
}

func check(t *testing.T, rep *Report, invs []Invariant) []InvariantResult {
	t.Helper()
	rs, err := CheckInvariants(rep, invs)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestInvariantsHoldOnHealthyReport(t *testing.T) {
	invs := Invariants(2)
	if len(invs) != 13 {
		t.Fatalf("got %d invariants, want 13", len(invs))
	}
	rs := check(t, healthyReport(2), invs)
	for _, r := range rs {
		if !r.Holds {
			t.Errorf("%s violated on healthy data (ratio %v, p %v)", r.Name, r.MinRatio, r.P)
		}
	}
	if AnyViolated(rs) {
		t.Error("AnyViolated on healthy data")
	}
}

// Every kept invariant must be able to fail: slowing its claimed-
// faster series 100x violates it, and nothing that does not read the
// doctored series.
func TestInvariantsCatchDoctoredInversion(t *testing.T) {
	invs := Invariants(2)
	for _, inv := range invs {
		rep := healthyReport(2)
		s := rep.Find(inv.Fast)
		for i := range s.SampleNs {
			s.SampleNs[i] *= 100
		}
		rs := check(t, rep, invs)
		caught := false
		for _, r := range rs {
			if r.Holds {
				continue
			}
			if r.Name == inv.Name {
				caught = true
			} else if r.Fast != inv.Fast && r.Slow != inv.Fast {
				t.Errorf("doctoring %s violated unrelated %s", inv.Fast, r.Name)
			}
		}
		if !caught {
			t.Errorf("%s holds with its fast side 100x slower", inv.Name)
		}
	}
}

func TestInvariantToleranceAbsorbsSmallInversion(t *testing.T) {
	rep := healthyReport(2)
	invs := Invariants(2)
	// omp_for 10% slower than eager: inverted, but inside the loose
	// default bound — must not gate.
	omp, eager := rep.Find(invs[0].Fast), rep.Find(invs[0].Slow)
	for i := range omp.SampleNs {
		omp.SampleNs[i] = eager.SampleNs[i] + eager.SampleNs[i]/10
	}
	for _, r := range check(t, rep, invs) {
		if !r.Holds {
			t.Errorf("%s violated inside tolerance (ratio %v)", r.Name, r.MinRatio)
		}
	}
	// The same 10% on the pinned twin breaks its own 1.05 bound: the
	// loose default does not reach the bounded-overhead claims.
	pinned := rep.Find(invs[2].Fast)
	copy(pinned.SampleNs, omp.SampleNs)
	if rs := check(t, rep, invs); rs[2].Holds {
		t.Errorf("%s holds at 1.10x against a %.2f bound", rs[2].Name, pinOverheadRatio)
	}
}

func TestInvariantsMissingSeriesIsError(t *testing.T) {
	invs := Invariants(2)
	for _, k := range Keys(invs) {
		rep := healthyReport(2)
		for i, s := range rep.Series {
			if s.Key == k {
				rep.Series = append(rep.Series[:i], rep.Series[i+1:]...)
				break
			}
		}
		if _, err := CheckInvariants(rep, invs); err == nil || !strings.Contains(err.Error(), "missing") {
			t.Errorf("without %s: err = %v, want a missing-series error", k, err)
		}
	}
}

// kernelKeys returns the kernel series the gate measures.
func kernelKeys(threads int) []Key {
	var out []Key
	for _, k := range Keys(Invariants(threads)) {
		if k.Offered == 0 {
			out = append(out, k)
		}
	}
	return out
}

// The suite itself, at a tiny scale: it must measure exactly the
// kernel series the invariants read, each with every rep.
func TestRunSuiteProducesInvariantKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("measures wall time")
	}
	keys := kernelKeys(2)
	if len(keys) != 12 {
		t.Fatalf("gate reads %d kernel series, want 12 (5 per flat loop + the fib pair)", len(keys))
	}
	rep, err := RunSuite(context.Background(), keys, SuiteConfig{Reps: 3, Scale: 0.01})
	if err != nil {
		t.Fatalf("RunSuite: %v", err)
	}
	if len(rep.Series) != len(keys) {
		t.Fatalf("got %d series, want %d", len(rep.Series), len(keys))
	}
	for _, s := range rep.Series {
		if len(s.SampleNs) != 3 {
			t.Errorf("%s: %d samples, want 3", s.Key, len(s.SampleNs))
		}
	}
	var invs []Invariant
	for _, inv := range Invariants(2) {
		if inv.Fast.Offered == 0 {
			invs = append(invs, inv)
		}
	}
	if _, err := CheckInvariants(rep, invs); err != nil {
		t.Errorf("suite keys do not line up with invariant keys: %v", err)
	}
}

// Kernel reps run round-robin after one warm-up each, so drift over
// the run is common-mode across series.
func TestKernelRepsInterleaved(t *testing.T) {
	var order []int
	runs := make([]func(), 3)
	for i := range runs {
		runs[i] = func() { order = append(order, i) }
	}
	samples, err := interleave(context.Background(), runs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}; !reflect.DeepEqual(order, want) {
		t.Errorf("run order = %v, want warm-ups then round-robin %v", order, want)
	}
	for i, s := range samples {
		if len(s) != 2 {
			t.Errorf("series %d: %d samples, want 2 (warm-up untimed)", i, len(s))
		}
	}
}

func TestRunSuiteUnknownKernel(t *testing.T) {
	keys := []Key{{Kernel: "nope", Model: models.OMPFor, Threads: 1, Partitioner: "-"}}
	if _, err := RunSuite(context.Background(), keys, SuiteConfig{}); err == nil {
		t.Error("RunSuite accepted an unknown kernel")
	}
}

func TestRunSuiteCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	keys := []Key{{Kernel: "axpy", Model: models.OMPFor, Threads: 1, Partitioner: "-"}}
	if _, err := RunSuite(ctx, keys, SuiteConfig{Reps: 1, Scale: 0.01}); !errors.Is(err, context.Canceled) {
		t.Errorf("RunSuite on a canceled context: err = %v, want Canceled", err)
	}
}
