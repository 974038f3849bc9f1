package metrics

import (
	"time"

	"threading/internal/tracez"
)

// SchedTarget is the view of a scheduler the stall watchdog observes.
// worksteal.Pool and shard.Resolver satisfy it; forkjoin.Team does
// not, as it reports no parked count, so the watchdog is a
// work-stealing-family facility — callers gate on a type assertion.
type SchedTarget interface {
	// PendingWork returns the records queued on the runtime's deques
	// and inbox, not yet taken; advisory.
	PendingWork() int64
	// ParkedWorkers returns workers currently blocked in park.
	ParkedWorkers() int
	// Workers returns the worker count.
	Workers() int
}

// WatchdogConfig tunes stall detection. Thresholds are consecutive
// observation ticks, not wall time, so slowing the interval slows
// detection proportionally rather than causing false trips.
type WatchdogConfig struct {
	// Interval between observations (DefaultInterval when zero).
	Interval time.Duration
	// FullThreshold is the consecutive-tick count of "work pending,
	// every worker parked" before tripping — the lost-wakeup shape.
	// Default 3.
	FullThreshold int
	// PartialThreshold is the consecutive-tick count of "work pending,
	// some workers parked" before tripping — the long-parked-with-
	// nonempty-deque shape. Legitimately occurs in bursts (a task was
	// just submitted, a parked worker hasn't woken yet), so the
	// default is much longer: 40 ticks (10s at the default interval).
	PartialThreshold int
}

// Watchdog periodically inspects a SchedTarget for stall anomalies
// and, on detection, bumps a stall counter and records a
// tracez.KindStall instant event — so a stall is visible both on
// /metrics and in the trace timeline next to the scheduler events
// that led to it. A tripped condition must fully clear (no pending
// work, or no parked workers) before it can trip again, so one stuck
// episode counts once.
type Watchdog struct {
	target SchedTarget
	ring   *tracez.Ring
	cfg    WatchdogConfig

	full    *Counter
	partial *Counter

	fullStreak     int
	partialStreak  int
	fullTripped    bool
	partialTripped bool

	poller *Poller
}

// NewWatchdog builds a watchdog over target, registering its stall
// counters on r under name (series per anomaly kind). ring may be nil
// (no trace events, metric only). The watchdog is unstarted.
func NewWatchdog(r *Registry, name string, target SchedTarget, ring *tracez.Ring, cfg WatchdogConfig) *Watchdog {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.FullThreshold <= 0 {
		cfg.FullThreshold = 3
	}
	if cfg.PartialThreshold <= 0 {
		cfg.PartialThreshold = 40
	}
	help := "Stall anomalies detected by the scheduler watchdog."
	w := &Watchdog{
		target:  target,
		ring:    ring,
		cfg:     cfg,
		full:    r.Counter(name, help, Label{"kind", "all-parked"}),
		partial: r.Counter(name, help, Label{"kind", "partial-park"}),
	}
	w.poller = NewPoller(cfg.Interval, w.tick)
	return w
}

// Start launches the observation goroutine.
func (w *Watchdog) Start() { w.poller.Start() }

// Stop halts it and waits for exit.
func (w *Watchdog) Stop() { w.poller.Stop() }

// tick is one observation. It is the whole detection algorithm, kept
// goroutine-free so tests drive it directly with a fake target.
func (w *Watchdog) tick() {
	pending := w.target.PendingWork()
	parked := w.target.ParkedWorkers()
	workers := w.target.Workers()

	// Anomaly 1: work is pending yet every worker is parked. With a
	// correct unpark path this state is transient (a submit wakes a
	// worker within one park/unpark round trip); sustained across
	// FullThreshold ticks it means a lost wakeup.
	if pending > 0 && workers > 0 && parked >= workers {
		w.fullStreak++
		if w.fullStreak >= w.cfg.FullThreshold && !w.fullTripped {
			w.fullTripped = true
			w.full.Inc()
			w.record(pending, parked)
		}
	} else {
		w.fullStreak = 0
		if pending == 0 || parked == 0 {
			w.fullTripped = false
		}
	}

	// Anomaly 2: some workers stay parked while work is pending —
	// fine briefly (wakeups are racy by design), suspicious when
	// sustained: it usually means the unpark fan-out undercounts or
	// a deque owner is blocked in user code while its deque is full.
	if pending > 0 && parked > 0 && parked < workers {
		w.partialStreak++
		if w.partialStreak >= w.cfg.PartialThreshold && !w.partialTripped {
			w.partialTripped = true
			w.partial.Inc()
			w.record(pending, parked)
		}
	} else {
		w.partialStreak = 0
		if pending == 0 || parked == 0 {
			w.partialTripped = false
		}
	}
}

func (w *Watchdog) record(pending int64, parked int) {
	w.ring.Record(tracez.KindStall, pending, int64(parked))
}
