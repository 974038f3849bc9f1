// Package metrics is the repository's stdlib-only continuous-telemetry
// layer: a registry of atomic counters, gauges, and log-bucketed
// histograms, exposed as Prometheus text format and expvar-style JSON.
// Where internal/sched.Stats counts what a runtime did and
// internal/tracez records when, this package makes both observable
// *while the process is running* — the live view internal/serve mounts
// at /metrics.
//
// Every update path is a single atomic operation on pre-registered
// state: Counter.Inc, Gauge.Set, and Histogram.Observe allocate
// nothing (pinned by allocation tests), so instrumentation is cheap
// enough for request and scheduler hot paths. Contended counters have
// a padded per-shard fast path (ShardedCounter), mirroring the
// sched.Shard idiom, so concurrent writers do not false-share one
// cache line. Values that already exist as atomics elsewhere are
// exposed through fn-backed registrations (CounterFunc, GaugeFunc)
// read only at scrape time, so mirroring them costs the hot path
// nothing at all.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// kind tags a metric family's type; one family holds one kind.
type kind uint8

const (
	kindCounter kind = iota + 1
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing int64. The zero value is
// ready; obtain registered counters from Registry.Counter.
type Counter struct {
	v atomic.Int64
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable float64 (stored as atomic bits, so Set and
// Value are single atomic operations).
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return floatFromBits(g.bits.Load()) }

// series is one (family, labels) instance. Exactly one of the value
// fields is set, fixed at registration.
type series struct {
	suffix string // rendered label block, e.g. `{handler="run"}`, or ""

	c  *Counter
	g  *Gauge
	cf func() int64
	gf func() float64
	h  *Histogram
	sc *ShardedCounter
}

// value reads the series as a float64; histograms are excluded (they
// expose through their buckets).
func (s *series) value() float64 {
	switch {
	case s.c != nil:
		return float64(s.c.Value())
	case s.cf != nil:
		return float64(s.cf())
	case s.sc != nil:
		return float64(s.sc.Value())
	case s.g != nil:
		return s.g.Value()
	case s.gf != nil:
		return s.gf()
	}
	return 0
}

// family is one named metric with its help text, type, and series.
type family struct {
	name string
	help string
	k    kind

	order  []string // label-suffix registration order
	series map[string]*series
}

// Registry holds metric families and scrape-time collectors. Create
// one with New; all methods are safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	order      []string
	families   map[string]*family
	collectors []func()
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// OnScrape registers fn to run at the start of every exposition
// (WritePrometheus, WriteJSON, Gather) — the hook samplers use to
// refresh gauges that are derived rather than maintained inline.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// labelSuffix renders labels as a Prometheus label block. Labels are
// sorted by key so equivalent label sets register one series.
func labelSuffix(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// seriesFor returns the series for (name, labels), creating family
// and series as needed. Registration is idempotent: the same name and
// labels return the same series. Registering one name under two kinds
// panics — that is a programming error, not a runtime condition.
func (r *Registry) seriesFor(name, help string, k kind, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, k: k, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.k != k {
		panic(fmt.Sprintf("metrics: %s registered as %s, re-registered as %s", name, f.k, k))
	}
	suffix := labelSuffix(labels)
	s, ok := f.series[suffix]
	if !ok {
		s = &series{suffix: suffix}
		f.series[suffix] = s
		f.order = append(f.order, suffix)
	}
	return s
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.seriesFor(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.c == nil {
		if s.cf != nil || s.sc != nil {
			panic("metrics: " + name + " already registered as a fn-backed or sharded counter")
		}
		s.c = &Counter{}
	}
	return s.c
}

// CounterFunc registers a counter series whose value is read from fn
// at scrape time — the zero-hot-path-cost mirror for counts that
// already live in an atomic elsewhere. Re-registration replaces fn.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	s := r.seriesFor(name, help, kindCounter, labels)
	r.mu.Lock()
	s.cf = fn
	r.mu.Unlock()
}

// ShardedCounter registers (or returns the existing) sharded counter
// series with the given shard count (see NewShardedCounter).
func (r *Registry) ShardedCounter(name, help string, shards int, labels ...Label) *ShardedCounter {
	s := r.seriesFor(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.sc == nil {
		if s.c != nil || s.cf != nil {
			panic("metrics: " + name + " already registered as a plain or fn-backed counter")
		}
		s.sc = NewShardedCounter(shards)
	}
	return s.sc
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.seriesFor(name, help, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.g == nil {
		if s.gf != nil {
			panic("metrics: " + name + " already registered as a fn-backed gauge")
		}
		s.g = &Gauge{}
	}
	return s.g
}

// GaugeFunc registers a gauge series whose value is read from fn at
// scrape time. Re-registration replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.seriesFor(name, help, kindGauge, labels)
	r.mu.Lock()
	s.gf = fn
	r.mu.Unlock()
}

// Histogram registers (or returns the existing) histogram series.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	s := r.seriesFor(name, help, kindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.h == nil {
		s.h = &Histogram{}
	}
	return s.h
}

// snapshot returns the families in registration order after running
// the scrape collectors. Collectors run outside the registry lock so
// they may register new series (the poller discovers workers lazily).
func (r *Registry) snapshot() []*family {
	r.mu.Lock()
	collectors := append([]func(){}, r.collectors...)
	r.mu.Unlock()
	for _, fn := range collectors {
		fn()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.families[name])
	}
	return out
}
