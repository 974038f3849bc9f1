package benchgate

import (
	"context"
	"errors"
	"strings"
	"testing"

	"threading/internal/models"
)

func TestLatencyInvariantsShape(t *testing.T) {
	invs := latencyInvariants(2)
	// omp_for <-> cilk_for and omp_for <-> cpp_async parity, both ways,
	// all p99 at the low offered point.
	if len(invs) != 4 {
		t.Fatalf("got %d invariants, want 4: %+v", len(invs), invs)
	}
	pairs := make(map[[2]string]bool)
	for _, inv := range invs {
		if inv.Metric != "p99" || inv.Ratio != tailParityRatio {
			t.Errorf("%s: metric %q bound %v, want p99 at %v", inv.Name, inv.Metric, inv.Ratio, tailParityRatio)
		}
		if inv.Fast.Offered != serveOffered || inv.Slow.Offered != serveOffered {
			t.Errorf("%s not at the low offered point: %+v", inv.Name, inv)
		}
		pairs[[2]string{inv.Fast.Model, inv.Slow.Model}] = true
	}
	for _, m := range []string{models.CilkFor, models.CPPAsync} {
		if !pairs[[2]string{m, models.OMPFor}] || !pairs[[2]string{models.OMPFor, m}] {
			t.Errorf("parity with %s not claimed in both directions: %v", m, pairs)
		}
	}
	for _, r := range check(t, healthyReport(2), invs) {
		if !r.Holds {
			t.Errorf("%s violated on healthy data (ratio %v, p %v)", r.Name, r.MinRatio, r.P)
		}
	}
}

func TestMetricInvariantCatchesTailInversion(t *testing.T) {
	rep := healthyReport(2)
	invs := latencyInvariants(2)
	// Doctor cilk_for's low-load distribution: every request 10x
	// slower — both the p99 ratio and the U test fire.
	s := rep.Find(invs[0].Fast)
	for i := range s.SampleNs {
		s.SampleNs[i] *= 10
	}
	var violated []string
	for _, r := range check(t, rep, invs) {
		if !r.Holds {
			violated = append(violated, r.Name)
		}
	}
	if len(violated) != 1 || violated[0] != "serve-p99-parity-"+models.CilkFor {
		t.Errorf("violated = %v, want exactly serve-p99-parity-cilk_for", violated)
	}
}

func TestMetricInvariantTailBlipWithoutShiftDoesNotGate(t *testing.T) {
	rep := healthyReport(2)
	invs := latencyInvariants(2)
	// One outlier request 100x slower: the p99 ratio blows past the
	// bound, but the distributions are otherwise identical, so the U
	// test cannot reject equality — a blip is noise, not a verdict.
	s := rep.Find(invs[0].Fast)
	s.SampleNs[len(s.SampleNs)-1] *= 100
	for _, r := range check(t, rep, invs) {
		if !r.Holds {
			t.Errorf("%s gated a single-request blip (ratio %v, p %v)", r.Name, r.MinRatio, r.P)
		}
	}
}

func TestMetricInvariantUnknownMetricIsError(t *testing.T) {
	rep := healthyReport(2)
	inv := latencyInvariants(2)[0]
	inv.Metric = "p12345"
	if _, err := CheckInvariants(rep, []Invariant{inv}); err == nil || !strings.Contains(err.Error(), "unknown metric") {
		t.Fatalf("unknown metric: err = %v, want an error", err)
	}
}

// The latency suite itself, at a tiny size: an in-process sweep must
// produce exactly the series the latency invariants read.
func TestRunLatencySuiteProducesInvariantKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("measures wall time")
	}
	invs := latencyInvariants(1)
	keys := Keys(invs)
	rep, err := RunLatencySuite(context.Background(), keys, LatencySuiteConfig{Requests: 30, WorkSize: 1 << 10})
	if err != nil {
		t.Fatalf("RunLatencySuite: %v", err)
	}
	if len(rep.Series) != len(keys) {
		t.Fatalf("series = %d, want %d", len(rep.Series), len(keys))
	}
	for _, s := range rep.Series {
		if s.Goodput <= 0 {
			t.Errorf("series %s goodput = %v, want > 0", s.Key, s.Goodput)
		}
		if len(s.SampleNs) == 0 {
			t.Errorf("series %s has no latency samples", s.Key)
		}
	}
	if _, err := CheckInvariants(rep, invs); err != nil {
		t.Errorf("suite keys do not line up with invariant keys: %v", err)
	}
}

func TestRunLatencySuiteCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	keys := Keys(latencyInvariants(1))
	if _, err := RunLatencySuite(ctx, keys, LatencySuiteConfig{Requests: 10, WorkSize: 1 << 10}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep: err = %v, want Canceled", err)
	}
}
