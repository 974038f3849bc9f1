// Package serve implements the latency-bound service scenario: an
// HTTP front end that executes the repo's kernels (and the Rodinia
// PathFinder DP) on a selectable threading runtime, turning the
// paper's "which model is fastest" question into "which scheduler
// holds its tail under load".
//
// The server is built on shard.Executor (via models.NewExecutor), not
// on the Model interface: Model methods reproduce the paper's
// single-benchmark-loop semantics and are not safe for concurrent
// calls, while the executor surface is exactly the concurrent one —
// a work-stealing pool absorbs overlapping request loops help-first,
// a fork-join team runs one of them as a team region and the others
// as serialized regions on their request goroutines, and a sharded
// resolver routes them across pools. Those differences are what the open-loop
// load generator (internal/loadgen) measures, in the performance
// gate's service series (internal/benchgate).
//
// Service semantics, in order of application:
//
//   - Admission: a bounded token bucket of Config.Queue slots. A
//     request that cannot take a slot immediately is shed with 429 and
//     Retry-After — explicit load shedding rather than unbounded
//     queueing, so the tail stays measurable instead of divergent.
//   - Deadline: every admitted request runs under a context deadline
//     (?timeout_ms, default Config.Timeout) that flows into the
//     executor's Ctx API. Expiry cancels the region at the next chunk
//     boundary, the loop drains synchronously, and the request
//     reports 504 — the runtime is reusable the moment the handler
//     returns.
//   - Hedging: /hedged duplicates a request through
//     futures.HedgeCtx after Config.Hedge; the loser is canceled and
//     drained before the response is written.
package serve

import (
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"threading/internal/metrics"
	"threading/internal/models"
	"threading/internal/shard"
	"threading/internal/tracez"
)

// Config selects the runtime and the service envelope.
type Config struct {
	// Model is any name models.NewExecutor accepts, e.g. "omp_for",
	// "cilk_for", "sharded:cilk_for".
	Model string
	// Threads is the runtime's worker budget; 0 selects GOMAXPROCS.
	Threads int
	// Shards and Balancer configure sharded models (see
	// models.WithShardCount / WithShardBalancer); zero values mean
	// unsharded / the balancer default.
	Shards   int
	Balancer string
	// Pinned locks the runtime's workers to OS threads.
	Pinned bool
	// Grain is the loop grain requests execute with; 0 is the
	// runtime's default chunking.
	Grain int
	// Queue bounds admission: at most Queue requests are in flight or
	// queued inside the runtime at once; the rest are shed with 429.
	// 0 selects 4x the thread count.
	Queue int
	// Timeout is the default per-request deadline; 0 selects 2s.
	Timeout time.Duration
	// Hedge is the default hedge delay of /hedged; 0 selects 5ms.
	Hedge time.Duration
	// WorkSize is the base problem size n the workloads are built at;
	// 0 selects 1<<15. Requests may ask for smaller sizes (?n=...),
	// never larger.
	WorkSize int
	// Tracer, when non-nil, records the runtime's scheduler events.
	Tracer *tracez.Tracer
	// Metrics enables the continuous-telemetry layer: a registry of
	// request and scheduler metrics exposed at /metrics (Prometheus
	// text format; ?format=json for the expvar-style JSON view), a
	// sampling poller deriving per-worker utilization and sched
	// counter rates, and a stall watchdog. When Metrics is set and
	// Tracer is nil the server creates a small internal tracer, since
	// utilization and request correlation are tracez-derived — that
	// ring recording is part of the overhead the benchmark of record
	// reports as serve.metrics_overhead_ratio. Off by default; a
	// disabled server behaves exactly as before this layer existed.
	Metrics bool
	// MetricsInterval is the poller and watchdog observation period;
	// 0 selects metrics.DefaultInterval.
	MetricsInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.Model == "" {
		c.Model = models.OMPFor
	}
	if c.Threads <= 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	if c.Queue <= 0 {
		c.Queue = 4 * c.Threads
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.Hedge <= 0 {
		c.Hedge = 5 * time.Millisecond
	}
	if c.WorkSize <= 0 {
		c.WorkSize = 1 << 15
	}
	return c
}

// Server executes kernel requests on one shared runtime. It
// implements http.Handler; all state mutation is atomic, so the
// handler is safe for net/http's per-connection goroutines.
type Server struct {
	cfg  Config
	exec shard.Executor
	work *workload
	mux  *http.ServeMux

	// sem holds one token per admitted in-flight request.
	sem chan struct{}

	depth     atomic.Int64 // admitted, not yet completed
	peakDepth atomic.Int64
	accepted  atomic.Int64
	shed      atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	timeouts  atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64 // hedged requests won by the duplicate

	// Telemetry (nil / zero when Config.Metrics is off).
	nextReq  atomic.Int64 // request-id mint; ids start at 1
	tracer   *tracez.Tracer
	registry *metrics.Registry
	poller   *metrics.Poller
	watchdog *metrics.Watchdog
}

// New builds the runtime and workloads and returns a ready server.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	tracer := cfg.Tracer
	if cfg.Metrics && tracer == nil {
		// Per-worker utilization and request attribution are derived
		// from trace events, so metrics need a tracer; a small ring
		// keeps the per-poll snapshot cost bounded.
		tracer = tracez.New(internalTraceCapacity)
	}
	ex, err := models.NewExecutor(cfg.Model, cfg.Threads,
		models.WithShardCount(cfg.Shards),
		models.WithShardBalancer(cfg.Balancer),
		models.WithPinnedWorkers(cfg.Pinned),
		models.WithTracer(tracer))
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &Server{
		cfg:    cfg,
		exec:   ex,
		work:   newWorkload(cfg.WorkSize),
		sem:    make(chan struct{}, cfg.Queue),
		tracer: tracer,
	}
	if cfg.Metrics {
		s.initMetrics()
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statz", s.handleStatz)
	s.mux.Handle("/run", s.instrumented("run", s.handleRun))
	s.mux.Handle("/fanout", s.instrumented("fanout", s.handleFanout))
	s.mux.Handle("/hedged", s.instrumented("hedged", s.handleHedged))
	if s.registry != nil {
		s.mux.HandleFunc("/metrics", s.handleMetrics)
	}
	return s, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Model reports the configured model name.
func (s *Server) Model() string { return s.cfg.Model }

// Close quiesces and releases the runtime. The server must not serve
// requests afterwards.
func (s *Server) Close() error {
	if s.watchdog != nil {
		s.watchdog.Stop()
	}
	if s.poller != nil {
		s.poller.Stop()
	}
	err := s.exec.Quiesce()
	s.exec.Close()
	return err
}

// admit takes an admission slot without blocking; false means shed.
func (s *Server) admit() bool {
	select {
	case s.sem <- struct{}{}:
		s.accepted.Add(1)
		d := s.depth.Add(1)
		for {
			peak := s.peakDepth.Load()
			if d <= peak || s.peakDepth.CompareAndSwap(peak, d) {
				break
			}
		}
		return true
	default:
		s.shed.Add(1)
		return false
	}
}

func (s *Server) release() {
	s.depth.Add(-1)
	<-s.sem
}

// Stats is the /statz payload: cumulative request counters plus the
// current and peak admission-queue depth.
type Stats struct {
	Model     string `json:"model"`
	Threads   int    `json:"threads"`
	QueueCap  int    `json:"queue_cap"`
	Depth     int64  `json:"depth"`
	PeakDepth int64  `json:"peak_depth"`
	Accepted  int64  `json:"accepted"`
	Shed      int64  `json:"shed"`
	Completed int64  `json:"completed"`
	Failed    int64  `json:"failed"`
	Timeouts  int64  `json:"timeouts"`
	Hedges    int64  `json:"hedges"`
	HedgeWins int64  `json:"hedge_wins"`
}

// Stats snapshots the counters. resetPeak additionally resets the
// peak queue depth to the current depth, so a load sweep can read the
// peak per measurement point.
func (s *Server) Stats(resetPeak bool) Stats {
	st := Stats{
		Model:     s.cfg.Model,
		Threads:   s.cfg.Threads,
		QueueCap:  s.cfg.Queue,
		Depth:     s.depth.Load(),
		PeakDepth: s.peakDepth.Load(),
		Accepted:  s.accepted.Load(),
		Shed:      s.shed.Load(),
		Completed: s.completed.Load(),
		Failed:    s.failed.Load(),
		Timeouts:  s.timeouts.Load(),
		Hedges:    s.hedges.Load(),
		HedgeWins: s.hedgeWins.Load(),
	}
	if resetPeak {
		// Swap, not Store: a plain Store could overwrite a peak raised
		// by a concurrent admit between our read and the write, and
		// could also lower the watermark below the live depth. Take
		// the watermark atomically, then re-raise it to at least the
		// current depth with the same CAS loop admit uses — the
		// watermark is never less than any depth that existed after
		// the reset.
		st.PeakDepth = s.peakDepth.Swap(st.Depth)
		for {
			d := s.depth.Load()
			p := s.peakDepth.Load()
			if d <= p || s.peakDepth.CompareAndSwap(p, d) {
				break
			}
		}
	}
	return st
}
