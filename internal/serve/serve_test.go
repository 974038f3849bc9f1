package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"threading/internal/models"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

func get(t *testing.T, s *Server, path string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func decode[T any](t *testing.T, body []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("unmarshal %q: %v", body, err)
	}
	return v
}

func TestRunAllKernelsAllModels(t *testing.T) {
	// The sum checksum must agree across runtimes: same data, same
	// reduction, different scheduler.
	var want float64
	for i, name := range []string{models.OMPFor, models.CilkFor, models.CPPAsync, "sharded:cilk_for"} {
		s := newTestServer(t, Config{Model: name, Threads: 2, WorkSize: 1 << 12})
		for _, k := range Kernels() {
			code, body := get(t, s, "/run?kernel="+k)
			if code != http.StatusOK {
				t.Fatalf("%s /run?kernel=%s = %d: %s", name, k, code, body)
			}
			resp := decode[Response](t, body)
			if resp.Kernel != k || resp.NS <= 0 {
				t.Fatalf("%s response = %+v", k, resp)
			}
		}
		_, body := get(t, s, "/run?kernel=sum")
		got := decode[Response](t, body).Result
		if i == 0 {
			want = got
		} else if math.Abs(got-want) > 1e-6*math.Abs(want) {
			t.Fatalf("%s sum = %g, want %g (runtime changed the math)", name, got, want)
		}
	}
}

func TestHealthzAndStatz(t *testing.T) {
	s := newTestServer(t, Config{Model: models.OMPFor, Threads: 1, WorkSize: 1 << 10})
	code, body := get(t, s, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz = %d: %s", code, body)
	}
	get(t, s, "/run?kernel=sum")
	code, body = get(t, s, "/statz")
	if code != http.StatusOK {
		t.Fatalf("/statz = %d", code)
	}
	st := decode[Stats](t, body)
	if st.Accepted < 1 || st.Completed < 1 || st.Depth != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDeadlineExpiry504AndRuntimeReusable is the satellite contract:
// a request whose deadline expires mid-loop reports 504 with the
// region fully drained, and the shared runtime serves the next
// request normally.
func TestDeadlineExpiry504AndRuntimeReusable(t *testing.T) {
	for _, name := range []string{models.OMPFor, models.CilkFor} {
		t.Run(name, func(t *testing.T) {
			// The request is sized by cell count, not by phases: 64
			// phases over WorkSize/4 columns are ~8.3 M DP cells, which
			// take 6-13 ms on two threads of a 2-core Xeon, far over the
			// 1ms deadline.
			s := newTestServer(t, Config{Model: name, Threads: 2, WorkSize: 1 << 19})
			code, body := get(t, s, "/run?kernel=pathfinder&rows=64&timeout_ms=1")
			if code != http.StatusGatewayTimeout {
				t.Fatalf("deadline-busting request = %d: %s", code, body)
			}
			// Drained: the handler returned, so depth is back to zero.
			st := s.Stats(false)
			if st.Depth != 0 || st.Timeouts != 1 {
				t.Fatalf("after 504: %+v", st)
			}
			// Reusable: the same runtime completes the next request.
			code, body = get(t, s, "/run?kernel=sum")
			if code != http.StatusOK {
				t.Fatalf("request after 504 = %d: %s", code, body)
			}
			// Quiesce must find nothing outstanding (Close re-checks on
			// cleanup; this asserts it happens while the server is live).
			if err := s.exec.Quiesce(); err != nil {
				t.Fatalf("Quiesce after 504: %v", err)
			}
		})
	}
}

func TestAdmissionShed429(t *testing.T) {
	s := newTestServer(t, Config{Model: models.OMPFor, Threads: 1, Queue: 1, WorkSize: 1 << 10})
	// Occupy the only admission slot directly — deterministic, no
	// timing games.
	s.sem <- struct{}{}
	req := httptest.NewRequest(http.MethodGet, "/run?kernel=sum", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("full queue = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if st := s.Stats(false); st.Shed != 1 {
		t.Fatalf("shed = %d, want 1", st.Shed)
	}
	<-s.sem
	if code, body := get(t, s, "/run?kernel=sum"); code != http.StatusOK {
		t.Fatalf("after slot freed = %d: %s", code, body)
	}
}

func TestHedgedRequest(t *testing.T) {
	// Sized for the deadline half below, as in
	// TestDeadlineExpiry504AndRuntimeReusable: ~8.3 M DP cells.
	s := newTestServer(t, Config{Model: models.CilkFor, Threads: 2, WorkSize: 1 << 19})
	code, body := get(t, s, "/hedged?kernel=sum&hedge_ms=0")
	if code != http.StatusOK {
		t.Fatalf("/hedged = %d: %s", code, body)
	}
	resp := decode[Response](t, body)
	if !resp.Hedged {
		t.Fatalf("hedge_ms=0 did not hedge: %+v", resp)
	}
	st := s.Stats(false)
	if st.Hedges != 1 {
		t.Fatalf("hedges = %d, want 1", st.Hedges)
	}
	if st.Depth != 0 {
		t.Fatalf("depth = %d after response, want 0 (loser leaked)", st.Depth)
	}
	// A hedged request that blows its deadline still reports 504 with
	// both attempts drained.
	code, _ = get(t, s, "/hedged?kernel=pathfinder&rows=64&hedge_ms=0&timeout_ms=1")
	if code != http.StatusGatewayTimeout && code != http.StatusOK {
		t.Fatalf("deadline-busting hedged request = %d", code)
	}
	if st := s.Stats(false); st.Depth != 0 {
		t.Fatalf("depth = %d, want 0", st.Depth)
	}
}

func TestFanoutMatchesSum(t *testing.T) {
	s := newTestServer(t, Config{Model: models.CilkFor, Threads: 2, WorkSize: 1 << 12})
	_, body := get(t, s, "/run?kernel=sum")
	want := decode[Response](t, body).Result
	code, body := get(t, s, "/fanout?ways=3")
	if code != http.StatusOK {
		t.Fatalf("/fanout = %d: %s", code, body)
	}
	resp := decode[Response](t, body)
	if resp.Ways != 3 {
		t.Fatalf("ways = %d", resp.Ways)
	}
	if math.Abs(resp.Result-want) > 1e-6*math.Abs(want) {
		t.Fatalf("fanout sum = %g, want %g", resp.Result, want)
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Config{Model: models.OMPFor, Threads: 1, WorkSize: 1 << 10})
	for _, path := range []string{
		"/run?kernel=nope",
		"/run?timeout_ms=abc",
		"/run?n=abc",
		"/fanout?ways=0",
		"/fanout?ways=65",
		"/hedged?hedge_ms=x",
	} {
		if code, body := get(t, s, path); code != http.StatusBadRequest {
			t.Errorf("%s = %d (%s), want 400", path, code, body)
		}
	}
	// Client errors are not runtime failures.
	if st := s.Stats(false); st.Failed != 0 {
		t.Fatalf("failed = %d, want 0", st.Failed)
	}
}

func TestStatzResetPeak(t *testing.T) {
	s := newTestServer(t, Config{Model: models.OMPFor, Threads: 1, WorkSize: 1 << 10})
	get(t, s, "/run?kernel=sum")
	if st := s.Stats(false); st.PeakDepth != 1 {
		t.Fatalf("peak = %d, want 1", st.PeakDepth)
	}
	code, body := get(t, s, "/statz?reset-peak=1")
	if code != http.StatusOK {
		t.Fatalf("/statz reset = %d", code)
	}
	if st := decode[Stats](t, body); st.PeakDepth != 1 {
		t.Fatalf("reset response peak = %d, want pre-reset 1", st.PeakDepth)
	}
	if st := s.Stats(false); st.PeakDepth != 0 {
		t.Fatalf("post-reset peak = %d, want 0", st.PeakDepth)
	}
}

func TestRequestSizeClamped(t *testing.T) {
	s := newTestServer(t, Config{Model: models.OMPFor, Threads: 1, WorkSize: 1 << 10})
	// Oversized n falls back to the workload size instead of reading
	// out of bounds.
	code, body := get(t, s, "/run?kernel=sum&n=999999999")
	if code != http.StatusOK {
		t.Fatalf("oversized n = %d: %s", code, body)
	}
	code, _ = get(t, s, "/run?kernel=pathfinder&rows=9999")
	if code != http.StatusOK {
		t.Fatalf("oversized rows = %d", code)
	}
}

func TestServerTimeoutDefault(t *testing.T) {
	// The default 2s deadline lets normal requests finish: no spurious
	// 504 on an unhurried request.
	s := newTestServer(t, Config{Model: models.CPPThread, Threads: 2, WorkSize: 1 << 10, Timeout: 2 * time.Second})
	if code, body := get(t, s, "/run?kernel=matvec"); code != http.StatusOK {
		t.Fatalf("matvec = %d: %s", code, body)
	}
}
