package metrics

import (
	"regexp"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Inc()
	if got := c.Value(); got != 2 {
		t.Fatalf("counter = %d, want 2", got)
	}
	g := r.Gauge("g", "help")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := New()
	a := r.Counter("c_total", "help", Label{"k", "v"})
	b := r.Counter("c_total", "help", Label{"k", "v"})
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	other := r.Counter("c_total", "help", Label{"k", "w"})
	if a == other {
		t.Fatal("distinct labels returned the same counter")
	}
	// Label order must not matter.
	x := r.Gauge("g", "help", Label{"a", "1"}, Label{"b", "2"})
	y := r.Gauge("g", "help", Label{"b", "2"}, Label{"a", "1"})
	if x != y {
		t.Fatal("label order produced distinct series")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("m", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "help")
}

func TestShardedCounter(t *testing.T) {
	c := NewShardedCounter(4)
	for i := 0; i < 100; i++ {
		c.Inc(i)
	}
	c.Add(2, 10)
	if got := c.Value(); got != 110 {
		t.Fatalf("sharded sum = %d, want 110", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	snap := h.snapshot()
	if snap.n != 1000 {
		t.Fatalf("n = %d, want 1000", snap.n)
	}
	// Log buckets: the p50 upper bound lands within one power of two
	// of the true median.
	if q := snap.quantile(0.5); q < 500 || q > 1024 {
		t.Fatalf("p50 bound = %d, want within (500, 1024]", q)
	}
	if q := snap.quantile(1); q < 1000 {
		t.Fatalf("p100 bound = %d, want >= 1000", q)
	}
}

// promLine matches one Prometheus text-format sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9]+(\.[0-9eE+-]+)?$`)

func TestPrometheusExposition(t *testing.T) {
	r := New()
	req := r.Counter("req_total", "requests", Label{"code", "200"})
	for range 7 {
		req.Inc()
	}
	r.Gauge("depth", "queue depth").Set(3)
	h := r.Histogram("lat_ns", "latency", Label{"handler", "run"})
	h.Observe(3) // bucket le=4
	h.Observe(5) // bucket le=8
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE req_total counter",
		`req_total{code="200"} 7`,
		"# TYPE depth gauge",
		"depth 3",
		"# TYPE lat_ns histogram",
		`lat_ns_bucket{handler="run",le="4"} 1`,
		`lat_ns_bucket{handler="run",le="8"} 3`,
		`lat_ns_bucket{handler="run",le="+Inf"} 3`,
		`lat_ns_sum{handler="run"} 13`,
		`lat_ns_count{handler="run"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("invalid sample line %q", line)
		}
	}
}

func TestGatherAndScrapeHook(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Inc()
	calls := 0
	r.OnScrape(func() { calls++ })
	h := r.Histogram("lat_ns", "help")
	h.Observe(100)

	m := r.Gather()
	if calls != 1 {
		t.Fatalf("scrape hook ran %d times, want 1", calls)
	}
	if m["c_total"] != 2 {
		t.Errorf("c_total = %v, want 2", m["c_total"])
	}
	if m["lat_ns_count"] != 1 {
		t.Errorf("lat_ns_count = %v, want 1", m["lat_ns_count"])
	}
	if m["lat_ns_p50"] < 100 {
		t.Errorf("lat_ns_p50 = %v, want >= 100", m["lat_ns_p50"])
	}
}

// The hot-path contract: metric updates allocate nothing. A regression
// here silently taxes every request and worker loop, so it's pinned.
func TestUpdatesZeroAlloc(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "help")
	g := r.Gauge("g", "help")
	h := r.Histogram("h_ns", "help")
	sc := r.ShardedCounter("s_total", "help", 8)
	for name, fn := range map[string]func(){
		"counter.Inc":       func() { c.Inc() },
		"gauge.Set":         func() { g.Set(1.5) },
		"histogram.Observe": func() { h.Observe(12345) },
		"sharded.Inc":       func() { sc.Inc(3) },
	} {
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f per op, want 0", name, allocs)
		}
	}
}
