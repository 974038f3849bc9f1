package main

import (
	"bytes"
	"context"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"threading/internal/benchgate"
)

type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// withProcs runs the test body at the given GOMAXPROCS, whatever the
// machine, so the exit-code contract is pinned independently of it.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// uniform stands in for the measurement: every series the invariants
// read gets the same samples, so every claim holds, and doctor may
// then alter the report.
func uniform(doctor func(*benchgate.Report, []benchgate.Invariant)) measureFunc {
	return func(ctx context.Context, invs []benchgate.Invariant) (*benchgate.Report, error) {
		rep := &benchgate.Report{}
		for _, k := range benchgate.Keys(invs) {
			rep.Add(benchgate.Series{Key: k, SampleNs: []int64{100, 101, 102, 103, 104, 105, 106}})
		}
		if doctor != nil {
			doctor(rep, invs)
		}
		return rep, nil
	}
}

func runCLI(t *testing.T, measure measureFunc, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb syncBuffer
	code = run(args, &out, &errb, measure)
	return code, out.String(), errb.String()
}

// The gate takes no subcommand and no flag: any argument is a usage
// error.
func TestExitCodeUsageErrors(t *testing.T) {
	withProcs(t, 2)
	for _, args := range [][]string{{"check"}, {"record"}, {"-reps", "3"}, {"-h"}, {"help"}} {
		if code, _, errOut := runCLI(t, uniform(nil), args...); code != 2 || !strings.Contains(errOut, "usage") {
			t.Errorf("run(%v) = %d, want 2 with usage\n%s", args, code, errOut)
		}
	}
}

// The offered-load sweep's knobs are not flags of the gate: the points,
// models and request counts are fixed, so naming one is a usage error
// that exits 2 before anything is measured.
func TestSweepFlagsExitTwo(t *testing.T) {
	withProcs(t, 2)
	for _, args := range [][]string{
		{"-offered", "abc"}, {"-offered", "200,400"}, {"-models", "omp_for"},
		{"-requests", "40"}, {"-worksize", "1024"}, {"-out", "lat.json"}, {"-nope"},
	} {
		measured := false
		code, _, errOut := runCLI(t, func(ctx context.Context, invs []benchgate.Invariant) (*benchgate.Report, error) {
			measured = true
			return uniform(nil)(ctx, invs)
		}, args...)
		if code != 2 || measured || !strings.Contains(errOut, "usage") {
			t.Errorf("run(%v) = %d, measured %v, want 2 with usage before measuring\n%s", args, code, measured, errOut)
		}
	}
}

// Below two processors every claim would be measured on timeshared
// workers, so the gate refuses to run rather than pass vacuously.
func TestSingleProcExitsTwo(t *testing.T) {
	withProcs(t, 1)
	measured := false
	code, _, errOut := runCLI(t, func(ctx context.Context, invs []benchgate.Invariant) (*benchgate.Report, error) {
		measured = true
		return uniform(nil)(ctx, invs)
	})
	if code != 2 || measured || !strings.Contains(errOut, "GOMAXPROCS") {
		t.Fatalf("GOMAXPROCS=1: exit %d, measured %v, want 2 before measuring\n%s", code, measured, errOut)
	}
}

func TestHealthyExitsZero(t *testing.T) {
	withProcs(t, 2)
	code, out, errOut := runCLI(t, uniform(nil))
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	for _, want := range []string{"kernel series", "service series", "p99", "goodput", "invariant", "t=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, " ok "); n != 13 {
		t.Errorf("%d invariants ok, want 13:\n%s", n, out)
	}
}

// The service table has one row per offered-load point the invariants
// read, with its latency percentiles, goodput, shed rate and peak
// queue depth.
func TestPrintsServicePointTable(t *testing.T) {
	withProcs(t, 2)
	code, out, errOut := runCLI(t, uniform(func(rep *benchgate.Report, _ []benchgate.Invariant) {
		for i := range rep.Series {
			if rep.Series[i].Offered != 0 {
				rep.Series[i].Goodput = 199.5
				rep.Series[i].ShedRate = 0.025
				rep.Series[i].QueueDepth = 7
			}
		}
	}))
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstderr:\n%s", code, errOut)
	}
	lines := strings.Split(out, "\n")
	header := ""
	for _, l := range lines {
		if strings.HasPrefix(l, "service series") {
			header = l
		}
	}
	for _, col := range []string{"n", "p50", "p99", "p999", "goodput", "shed", "depth"} {
		if !strings.Contains(header, " "+col) {
			t.Errorf("service header %q lacks column %q", header, col)
		}
	}
	points := 0
	for _, k := range benchgate.Keys(benchgate.Invariants(2)) {
		if k.Offered == 0 {
			continue
		}
		points++
		row := ""
		for _, l := range lines {
			if strings.HasPrefix(l, k.String()+" ") {
				row = l
			}
		}
		f := strings.Fields(strings.TrimPrefix(row, k.String()))
		if len(f) != 7 || f[0] != "7" || f[4] != "199.5" || f[5] != "2.5%" || f[6] != "7" {
			t.Errorf("service row for %s = %q, want n=7, goodput 199.5, shed 2.5%%, depth 7", k, row)
		}
	}
	if points == 0 {
		t.Fatal("no invariant reads a service series")
	}
}

// Every kept invariant exits 1 when its claimed-faster series is
// doctored 100x slower.
func TestDoctoredInversionExitsOne(t *testing.T) {
	withProcs(t, 2)
	for _, inv := range benchgate.Invariants(2) {
		code, out, errOut := runCLI(t, uniform(func(rep *benchgate.Report, _ []benchgate.Invariant) {
			s := rep.Find(inv.Fast)
			for i := range s.SampleNs {
				s.SampleNs[i] *= 100
			}
		}))
		if code != 1 {
			t.Errorf("%s doctored: exit %d, want 1\nstderr:\n%s", inv.Name, code, errOut)
			continue
		}
		line := ""
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, inv.Name+" ") {
				line = l
			}
		}
		if !strings.Contains(line, "VIOLATED") {
			t.Errorf("%s doctored: its table line %q lacks VIOLATED", inv.Name, line)
		}
	}
}

func TestMissingSeriesExitsTwo(t *testing.T) {
	withProcs(t, 2)
	code, _, errOut := runCLI(t, uniform(func(rep *benchgate.Report, _ []benchgate.Invariant) {
		rep.Series = rep.Series[1:]
	}))
	if code != 2 || !strings.Contains(errOut, "missing") {
		t.Fatalf("missing series: exit %d, want 2\n%s", code, errOut)
	}
}

// TestInterruptExits130 pins the interrupt contract: SIGINT cancels
// the measurement, and the gate exits 130 without a verdict.
func TestInterruptExits130(t *testing.T) {
	withProcs(t, 2)
	// Guard subscription: while registered, SIGINT cannot terminate
	// the test process even if run's own handler is not yet installed
	// when the signal lands.
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, os.Interrupt)
	defer signal.Stop(guard)

	started := make(chan struct{})
	blocking := func(ctx context.Context, _ []benchgate.Invariant) (*benchgate.Report, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	done := make(chan struct{})
	var code int
	var out, errOut string
	go func() {
		defer close(done)
		code, out, errOut = runCLI(t, blocking)
	}()
	<-started
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after SIGINT")
	}
	if code != 130 || !strings.Contains(errOut, "interrupted") {
		t.Fatalf("exit %d, want 130 with an interrupt notice\nstderr:\n%s", code, errOut)
	}
	if strings.Contains(out, "invariant") {
		t.Errorf("interrupted run printed a verdict:\n%s", out)
	}
}
