// Command benchgate is the repository's performance gate. It takes no
// arguments: it measures, at threads = GOMAXPROCS, every series the
// gated invariants read — the flat-loop kernel series (interleaved rep
// by rep), the fib task pair, and the low-load service series — then
// prints a series table and an invariant table.
//
// Usage:
//
//	go run ./cmd/benchgate
//
// The invariants encode the paper's orderings (work-sharing beats
// eager work-stealing on flat loops; lazy splitting beats eager at
// stress grain; cilk_spawn beats omp task on fib), the bounded costs
// of pinning and sharding, and low-load p99 parity across service
// runtimes. Each is a ratio between two series of the same run, so no
// stored baseline is involved and the verdict is about the machine at
// hand.
//
// Exit status: 0 every invariant holds, 1 some invariant is violated,
// 2 usage error, GOMAXPROCS < 2 (the claims are about parallel
// execution, so a single-processor run would prove nothing), a series
// an invariant reads is missing, or a measurement failed; 130
// interrupted (SIGINT or SIGTERM).
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"threading/internal/benchgate"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, benchgate.Measure))
}

// measureFunc takes the fresh samples the invariants read.
type measureFunc func(context.Context, []benchgate.Invariant) (*benchgate.Report, error)

// run is main with injectable arguments, streams and measurement, so
// the exit-code contract is testable in-process.
func run(args []string, stdout, stderr io.Writer, measure measureFunc) int {
	if len(args) > 0 {
		fmt.Fprintf(stderr, "benchgate: takes no arguments (got %q)\nusage: go run ./cmd/benchgate\n", args)
		return 2
	}
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		fmt.Fprintf(stderr, "benchgate: GOMAXPROCS = %d; the invariants are claims about parallel execution and need at least 2\n", procs)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	invs := benchgate.Invariants(procs)
	rep, err := measure(ctx, invs)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(stderr, "benchgate: interrupted")
			return 130
		}
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	benchgate.WriteSeriesTable(stdout, rep)
	fmt.Fprintln(stdout)
	rs, err := benchgate.CheckInvariants(rep, invs)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	benchgate.WriteInvariantTable(stdout, rs)
	if benchgate.AnyViolated(rs) {
		return 1
	}
	return 0
}
