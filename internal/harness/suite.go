package harness

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"threading/internal/features"
)

// SuiteConfig selects what RunSuite executes: which figures, under
// which run Config, rendered how. The root package (threading)
// re-exports it; cmd/threadbench is a thin wrapper over RunSuiteCtx.
type SuiteConfig struct {
	// Config configures each experiment run.
	Config
	// Experiments lists figure IDs ("fig1".."fig10"). Empty selects
	// all.
	Experiments []string
	// CSV switches output from human-readable tables (with the
	// scheduler counters appended when Stats is set) to CSV.
	CSV bool
}

// RunSuite executes the selected experiments and writes their tables
// to out. It returns the collected results for programmatic use.
func RunSuite(cfg SuiteConfig, out io.Writer) ([]*Result, error) {
	return RunSuiteCtx(context.Background(), cfg, out)
}

// RunSuiteCtx is RunSuite with cooperative cancellation: a canceled
// or expired context aborts the suite at the next measurement
// boundary and the context's error is returned. Results of
// experiments that completed before the cancellation are returned
// alongside the error.
func RunSuiteCtx(ctx context.Context, cfg SuiteConfig, out io.Writer) ([]*Result, error) {
	ids := cfg.Experiments
	if len(ids) == 0 {
		ids = IDs()
	}
	var results []*Result
	for _, id := range ids {
		e, ok := ByID(id)
		if !ok {
			return nil, fmt.Errorf("harness: unknown experiment %q (have %v)", id, IDs())
		}
		start := time.Now()
		res, err := RunCtx(ctx, e, cfg.Config)
		if err != nil {
			return results, err
		}
		if cfg.CSV {
			res.RenderCSV(out)
		} else {
			res.Render(out)
			res.RenderStats(out)
			fmt.Fprintf(out, "(experiment wall time: %v)\n\n", time.Since(start).Round(time.Millisecond))
		}
		results = append(results, res)
	}
	return results, nil
}

// FeatureReport writes the paper's Tables I-III to out. tables
// selects which (1..3); empty selects all.
func FeatureReport(tables []int, out io.Writer) error {
	want := map[int]bool{}
	for _, n := range tables {
		if n < 1 || n > 3 {
			return fmt.Errorf("harness: no table %d (have 1..3)", n)
		}
		want[n] = true
	}
	var sb strings.Builder
	for _, t := range features.Tables() {
		if len(want) > 0 && !want[t.Number] {
			continue
		}
		t.Render(&sb)
		sb.WriteString("\n")
	}
	_, err := io.WriteString(out, sb.String())
	return err
}

// Summary condenses one result into the paper-shape assertions the
// EXPERIMENTS.md log records: who wins, who loses, by what factor.
type Summary struct {
	Experiment string
	Threads    int
	Best       string
	Worst      string
	// WorstOverBest is time(worst)/time(best) at Threads.
	WorstOverBest float64
}

// Summarize extracts the Summary at the largest measured thread
// count.
func Summarize(r *Result) Summary {
	t := r.Threads[len(r.Threads)-1]
	best, worst := r.BestModel(t), r.WorstModel(t)
	return Summary{
		Experiment:    r.Experiment.ID,
		Threads:       t,
		Best:          best,
		Worst:         worst,
		WorstOverBest: r.Ratio(worst, best, t),
	}
}
