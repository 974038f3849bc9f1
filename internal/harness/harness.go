// Package harness drives the paper's performance experiments: for
// each figure it prepares a workload, runs it under every threading
// model across a sweep of thread counts with repetitions, verifies
// results against the sequential reference, and renders the timing
// and speedup tables that correspond to the paper's plots.
package harness

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"time"

	"threading/internal/models"
	"threading/internal/sched"
	"threading/internal/shard"
	"threading/internal/stats"
	"threading/internal/tracez"
	"threading/internal/worksteal"
)

// Workload is one prepared experiment instance.
type Workload struct {
	// Desc describes the prepared size, e.g. "N=8000000".
	Desc string
	// Seq executes the sequential reference once.
	Seq func()
	// Run executes the workload under m once.
	Run func(m models.Model)
	// Check verifies that running under m produces the reference
	// result. May be nil when Run itself is self-checking.
	Check func(m models.Model) error
}

// Experiment is one paper figure: metadata plus a workload factory.
type Experiment struct {
	// ID is the figure identifier, e.g. "fig1".
	ID string
	// Title names the application and its role in the paper.
	Title string
	// Finding summarizes what the paper reports for this figure.
	Finding string
	// Models lists the model names this experiment runs (the paper
	// restricts Fig. 5 to the task-capable models).
	Models []string
	// Prepare builds the workload at the given scale in (0, 1].
	Prepare func(scale float64) *Workload
}

// Config controls an experiment run.
type Config struct {
	// Threads is the sweep of thread counts. Empty selects
	// {1, 2, 4, ..., 2*GOMAXPROCS}.
	Threads []int
	// Reps is the number of timed repetitions per cell; the minimum
	// is reported (standard practice for noisy shared machines).
	// Zero selects 3.
	Reps int
	// Scale multiplies the workload size. Zero selects 1.0.
	Scale float64
	// Verify runs each model's correctness check before timing.
	Verify bool
	// Partitioner selects the loop partitioner for the work-stealing
	// models. The zero value, worksteal.Eager, is the paper-faithful
	// decomposition and must be used when reproducing the paper's
	// figures; worksteal.Lazy enables demand-driven splitting.
	Partitioner worksteal.Partitioner
	// Stats collects per-cell scheduler counters (for models whose
	// runtime records them), reset after each warm-up so the numbers
	// cover exactly the timed repetitions.
	Stats bool
	// Grain fixes the cilk_for loop grain; the zero value keeps the
	// default heuristic (see models.WithGrain). The benchmark gate
	// uses it to measure the distribution-stressing regime.
	Grain int
	// Tracer, when non-nil, is attached to every model the sweep
	// constructs, so each cell's runtime records scheduler events into
	// it. The rings wrap around, so the capture covers the tail of the
	// sweep — trace a single figure/model/threads selection for a
	// readable timeline.
	Tracer *tracez.Tracer
	// Shards splits each pooled model's runtime into this many shards
	// behind a shard.Resolver (see models.WithShardCount): 0 disables
	// sharding, a negative value selects GOMAXPROCS shards. Models
	// without a persistent runtime ignore it.
	Shards int
	// Balancer names the resolver's balancer when Shards is non-zero:
	// round-robin (default), random, least-loaded, or affinity.
	Balancer string
	// Pinned locks the pooled runtimes' worker goroutines to OS
	// threads (see models.WithPinnedWorkers). Models without durable
	// workers ignore it.
	Pinned bool
}

// DefaultThreads returns the default sweep {1, 2, 4, ...} up to twice
// GOMAXPROCS (the paper sweeps past the physical core count into
// hyper-threading territory; we sweep into oversubscription).
func DefaultThreads() []int {
	max := 2 * runtime.GOMAXPROCS(0)
	var out []int
	for t := 1; t <= max; t *= 2 {
		out = append(out, t)
	}
	return out
}

func (c Config) withDefaults() Config {
	if len(c.Threads) == 0 {
		c.Threads = DefaultThreads()
	}
	if c.Reps <= 0 {
		c.Reps = 3
	}
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	return c
}

// Result is the outcome of one experiment run.
type Result struct {
	Experiment  *Experiment
	Desc        string
	SeqTime     time.Duration
	Threads     []int
	Models      []string
	Partitioner worksteal.Partitioner
	// Shards and Balancer echo the sharding configuration of the run
	// (Config.Shards resolved against GOMAXPROCS; zero when unsharded).
	Shards   int
	Balancer string
	Cells    map[string]map[int]stats.Sample
	// Sched holds per-cell scheduler counters, present only when the
	// run was configured with Stats and the model's runtime collects
	// them.
	Sched map[string]map[int]sched.Snapshot
	// ShardSched holds per-cell, per-shard counters for cells whose
	// model ran sharded (models.Resolver), present only when the
	// run was configured with Stats. The merged totals remain in Sched.
	ShardSched map[string]map[int][]shard.Stat
	// TraceDropped holds the per-cell count of scheduler events the
	// tracer's rings overwrote during the timed reps (a wraparound
	// warning: the captured window is incomplete). Present only when
	// the run was configured with a Tracer.
	TraceDropped map[string]map[int]int64
}

// RunCtx executes the experiment under cfg. The sweep checks ctx
// between repetitions and between (model, threads) cells, so a
// canceled or expired context aborts the experiment at the next
// measurement boundary (an in-flight repetition runs to completion)
// and the context's error is returned.
func RunCtx(ctx context.Context, e *Experiment, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	w := e.Prepare(cfg.Scale)

	// Sequential baseline: best of Reps.
	var seqTimes []time.Duration
	for r := 0; r < cfg.Reps; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := time.Now()
		w.Seq()
		seqTimes = append(seqTimes, time.Since(start))
	}
	seq := stats.Summarize(seqTimes).Min

	shards := cfg.Shards
	if shards < 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	res := &Result{
		Experiment:  e,
		Desc:        w.Desc,
		SeqTime:     seq,
		Threads:     cfg.Threads,
		Models:      e.Models,
		Partitioner: cfg.Partitioner,
		Shards:      shards,
		Balancer:    cfg.Balancer,
		Cells:       make(map[string]map[int]stats.Sample),
	}
	if cfg.Stats {
		res.Sched = make(map[string]map[int]sched.Snapshot)
		res.ShardSched = make(map[string]map[int][]shard.Stat)
	}
	if cfg.Tracer != nil {
		res.TraceDropped = make(map[string]map[int]int64)
	}
	for _, name := range e.Models {
		res.Cells[name] = make(map[int]stats.Sample)
		for _, threads := range cfg.Threads {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			m, err := models.New(name, threads,
				models.WithPartitioner(cfg.Partitioner), models.WithGrain(cfg.Grain),
				models.WithTracer(cfg.Tracer),
				models.WithShardCount(cfg.Shards), models.WithShardBalancer(cfg.Balancer),
				models.WithPinnedWorkers(cfg.Pinned))
			if err != nil {
				return nil, err
			}
			if cfg.Verify && w.Check != nil {
				if err := w.Check(m); err != nil {
					m.Close()
					return nil, fmt.Errorf("%s: %s @%d threads: %w", e.ID, name, threads, err)
				}
			}
			w.Run(m) // warm-up, untimed
			// Bracket the timed reps with snapshots instead of resetting,
			// so the reported counters are a true delta even if the
			// runtime saw other activity.
			base, _ := m.SchedulerStats()
			resolver, sharded := models.Resolver(m)
			var shardBase []shard.Stat
			if sharded && cfg.Stats {
				shardBase = resolver.ShardStats()
			}
			var dropBase int64
			if cfg.Tracer != nil {
				dropBase = cfg.Tracer.Dropped()
			}
			var ts []time.Duration
			for r := 0; r < cfg.Reps; r++ {
				if err := ctx.Err(); err != nil {
					m.Close()
					return nil, err
				}
				start := time.Now()
				w.Run(m)
				ts = append(ts, time.Since(start))
			}
			if cfg.Stats {
				if snap, ok := m.SchedulerStats(); ok {
					if res.Sched[name] == nil {
						res.Sched[name] = make(map[int]sched.Snapshot)
					}
					res.Sched[name][threads] = snap.Delta(base)
				}
				if sharded {
					if res.ShardSched[name] == nil {
						res.ShardSched[name] = make(map[int][]shard.Stat)
					}
					res.ShardSched[name][threads] = deltaShardStats(shardBase, resolver.ShardStats())
				}
			}
			if cfg.Tracer != nil {
				if res.TraceDropped[name] == nil {
					res.TraceDropped[name] = make(map[int]int64)
				}
				res.TraceDropped[name][threads] = cfg.Tracer.Dropped() - dropBase
			}
			m.Close()
			res.Cells[name][threads] = stats.Summarize(ts)
		}
	}
	return res, nil
}

// deltaShardStats subtracts the base bracket from the end-of-reps
// shard snapshots, matching shards by id (positions shift when shards
// are added or drained mid-run). A shard absent from the base — added
// after the bracket opened — deltas against zero.
func deltaShardStats(base, end []shard.Stat) []shard.Stat {
	byID := make(map[int]sched.Snapshot, len(base))
	for _, st := range base {
		byID[st.ID] = st.Snapshot
	}
	out := make([]shard.Stat, len(end))
	for i, st := range end {
		out[i] = shard.Stat{ID: st.ID, Snapshot: st.Snapshot.Delta(byID[st.ID])}
	}
	return out
}

// Render writes the result as two aligned text tables (time and
// speedup over the sequential reference), matching the series the
// paper plots.
func (r *Result) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.Experiment.ID, r.Experiment.Title)
	fmt.Fprintf(w, "workload: %s\n", r.Desc)
	fmt.Fprintf(w, "paper:    %s\n", r.Experiment.Finding)
	if r.Partitioner != worksteal.Eager {
		fmt.Fprintf(w, "partitioner: %s (NOT paper-faithful; use eager to reproduce figures)\n", r.Partitioner)
	}
	if r.Shards != 0 {
		bal := r.Balancer
		if bal == "" {
			bal = "round-robin"
		}
		fmt.Fprintf(w, "sharding: %d shards, %s balancer (pooled models only)\n", r.Shards, bal)
	}
	fmt.Fprintf(w, "sequential reference: %v\n\n", r.SeqTime)

	fmt.Fprintf(w, "execution time (min of reps):\n")
	fmt.Fprintf(w, "%-8s", "threads")
	for _, m := range r.Models {
		fmt.Fprintf(w, " %12s", m)
	}
	fmt.Fprintln(w)
	for _, t := range r.Threads {
		fmt.Fprintf(w, "%-8d", t)
		for _, m := range r.Models {
			fmt.Fprintf(w, " %12v", r.Cells[m][t].Min.Round(time.Microsecond))
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintf(w, "\nspeedup vs sequential:\n")
	fmt.Fprintf(w, "%-8s", "threads")
	for _, m := range r.Models {
		fmt.Fprintf(w, " %12s", m)
	}
	fmt.Fprintln(w)
	for _, t := range r.Threads {
		fmt.Fprintf(w, "%-8d", t)
		for _, m := range r.Models {
			fmt.Fprintf(w, " %12.2f", stats.Speedup(r.SeqTime, r.Cells[m][t].Min))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// RenderStats writes the per-cell scheduler counters collected when
// the run was configured with Config.Stats. Cells whose model runtime
// does not record counters are omitted; with no counters at all it
// writes nothing.
//
// When any cell ran sharded, a "shard" column is added and each
// sharded cell expands into a merged row (tagged "-") followed by one
// row per shard id, so imbalance across shards is visible next to the
// totals. Unsharded runs keep the original layout; the counter columns
// are derived from Fields() in both cases. A traced run adds a
// "dropped" column — events the tracer rings overwrote during the
// cell's timed reps; nonzero means that cell's capture is truncated.
func (r *Result) RenderStats(w io.Writer) {
	if len(r.Sched) == 0 {
		return
	}
	sharded := false
	for _, cells := range r.ShardSched {
		if len(cells) > 0 {
			sharded = true
			break
		}
	}
	fmt.Fprintf(w, "scheduler counters (timed reps only):\n")
	fmt.Fprintf(w, "%-12s %-8s", "model", "threads")
	if sharded {
		fmt.Fprintf(w, " %-6s", "shard")
	}
	for _, f := range (sched.Snapshot{}).Fields() {
		fmt.Fprintf(w, " %13s", f.Name)
	}
	if r.TraceDropped != nil {
		fmt.Fprintf(w, " %13s", "dropped")
	}
	fmt.Fprintln(w)
	row := func(model string, threads int, tag string, s sched.Snapshot, dropped string) {
		fmt.Fprintf(w, "%-12s %-8d", model, threads)
		if sharded {
			fmt.Fprintf(w, " %-6s", tag)
		}
		for _, f := range s.Fields() {
			fmt.Fprintf(w, " %13d", f.Value)
		}
		if r.TraceDropped != nil {
			fmt.Fprintf(w, " %13s", dropped)
		}
		fmt.Fprintln(w)
	}
	for _, m := range r.Models {
		cells, ok := r.Sched[m]
		if !ok {
			continue
		}
		for _, t := range r.Threads {
			s, ok := cells[t]
			if !ok {
				continue
			}
			dropped := ""
			if r.TraceDropped != nil {
				// The tracer is shared across shards, so the drop count
				// is cell-wide: report it on the merged row only.
				dropped = strconv.FormatInt(r.TraceDropped[m][t], 10)
			}
			row(m, t, "-", s, dropped)
			for _, st := range r.ShardSched[m][t] {
				row(m, t, "s"+strconv.Itoa(st.ID), st.Snapshot, "")
			}
		}
	}
	fmt.Fprintln(w)
}

// RenderCSV writes the result as CSV rows:
// experiment,model,threads,reps,min_ns,mean_ns,median_ns,speedup,partitioner.
func (r *Result) RenderCSV(w io.Writer) {
	fmt.Fprintln(w, "experiment,model,threads,reps,min_ns,mean_ns,median_ns,speedup,partitioner")
	for _, m := range r.Models {
		for _, t := range r.Threads {
			s := r.Cells[m][t]
			fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d,%d,%.3f,%s\n",
				r.Experiment.ID, m, t, s.N,
				s.Min.Nanoseconds(), s.Mean.Nanoseconds(), s.Median.Nanoseconds(),
				stats.Speedup(r.SeqTime, s.Min), r.Partitioner)
		}
	}
}

// BestModel returns the model with the lowest time at the given
// thread count.
func (r *Result) BestModel(threads int) string {
	best, bestT := "", time.Duration(0)
	for _, m := range r.Models {
		s, ok := r.Cells[m][threads]
		if !ok {
			continue
		}
		if best == "" || s.Min < bestT {
			best, bestT = m, s.Min
		}
	}
	return best
}

// WorstModel returns the model with the highest time at the given
// thread count.
func (r *Result) WorstModel(threads int) string {
	worst, worstT := "", time.Duration(0)
	for _, m := range r.Models {
		s, ok := r.Cells[m][threads]
		if !ok {
			continue
		}
		if worst == "" || s.Min > worstT {
			worst, worstT = m, s.Min
		}
	}
	return worst
}

// Ratio returns time(a)/time(b) at the given thread count.
func (r *Result) Ratio(a, b string, threads int) float64 {
	sa, sb := r.Cells[a][threads], r.Cells[b][threads]
	if sb.Min <= 0 {
		return 0
	}
	return float64(sa.Min) / float64(sb.Min)
}

// IDs returns the registered experiment IDs in order.
func IDs() []string {
	exps := Registry()
	out := make([]string, 0, len(exps))
	for _, e := range exps {
		out = append(out, e.ID)
	}
	sort.Slice(out, func(i, j int) bool {
		// fig1 < fig2 < ... < fig10 numerically.
		return figNum(out[i]) < figNum(out[j])
	})
	return out
}

func figNum(id string) int {
	var n int
	fmt.Sscanf(id, "fig%d", &n)
	return n
}

// ByID returns the registered experiment with the given ID.
func ByID(id string) (*Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return nil, false
}
