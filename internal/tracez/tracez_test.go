package tracez

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"threading/internal/stats"
)

func TestNilTracerFastPath(t *testing.T) {
	var tr *Tracer
	if r := tr.Ring(3); r != nil {
		t.Fatalf("nil tracer handed out a ring: %v", r)
	}
	tr.Label(0, "w0") // must not panic
	if snap := tr.Snapshot(); snap != nil {
		t.Fatalf("nil tracer snapshot = %v, want nil", snap)
	}
	var ring *Ring
	ring.Record(KindTaskStart, 0, 0) // must not panic
}

func TestDisabledRingZeroAllocs(t *testing.T) {
	var ring *Ring
	allocs := testing.AllocsPerRun(1000, func() {
		ring.Record(KindSpawn, 1, 2)
	})
	if allocs != 0 {
		t.Fatalf("nil-ring Record allocates %.1f/op, want 0", allocs)
	}
}

func TestEnabledRingZeroAllocs(t *testing.T) {
	ring := New(64).Ring(0)
	allocs := testing.AllocsPerRun(1000, func() {
		ring.Record(KindSpawn, 1, 2)
	})
	if allocs != 0 {
		t.Fatalf("enabled Record allocates %.1f/op, want 0 (the hot path must not allocate)", allocs)
	}
}

func TestRingWraparound(t *testing.T) {
	tr := New(8) // rounds to 8
	ring := tr.Ring(0)
	const total = 21
	for i := 0; i < total; i++ {
		ring.Record(KindSpawn, int64(i), 0)
	}
	snap := tr.Snapshot()
	if len(snap.Workers) != 1 {
		t.Fatalf("workers = %d, want 1", len(snap.Workers))
	}
	wt := snap.Workers[0]
	if len(wt.Events) != 8 {
		t.Fatalf("retained %d events, want capacity 8", len(wt.Events))
	}
	if wt.Dropped != total-8 {
		t.Fatalf("dropped = %d, want %d", wt.Dropped, total-8)
	}
	// Oldest-first, and exactly the newest 8 survive.
	for i, e := range wt.Events {
		if want := int64(total - 8 + i); e.A1 != want {
			t.Fatalf("event %d has A1=%d, want %d (overwrite-oldest order)", i, e.A1, want)
		}
	}
	for i := 1; i < len(wt.Events); i++ {
		if wt.Events[i].TS < wt.Events[i-1].TS {
			t.Fatalf("events out of timestamp order at %d", i)
		}
	}
}

func TestCapacityRoundsUp(t *testing.T) {
	tr := New(9)
	ring := tr.Ring(0)
	for i := 0; i < 16; i++ {
		ring.Record(KindSpawn, int64(i), 0)
	}
	snap := tr.Snapshot()
	if got := len(snap.Workers[0].Events); got != 16 {
		t.Fatalf("capacity 9 rounds to %d retained, want 16", got)
	}
}

func TestConcurrentRecordAndSnapshot(t *testing.T) {
	tr := New(32)
	ring := tr.Ring(0) // deliberately shared: the futures layer multi-writes one ring
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ring.Record(KindSpawn, int64(i), 0)
			}
		}()
	}
	for i := 0; i < 20; i++ {
		tr.Snapshot()
	}
	wg.Wait()
	snap := tr.Snapshot()
	wt := snap.Workers[0]
	if len(wt.Events)+int(wt.Dropped) != 4*500 {
		t.Fatalf("retained+dropped = %d, want %d", len(wt.Events)+int(wt.Dropped), 4*500)
	}
}

func TestRoundtrip(t *testing.T) {
	tr := New(64)
	r0, r1 := tr.Ring(0), tr.Ring(1)
	tr.Label(0, "w0")
	tr.Label(1, "helper0")
	r0.Record(KindTaskStart, 0, 0)
	r0.Record(KindChunkStart, 10, 20)
	r0.Record(KindChunkEnd, 10, 20)
	r0.Record(KindTaskEnd, 0, 0)
	r1.Record(KindSteal, 0, 3)
	snap := tr.Snapshot()
	snap.Meta["model"] = "cilk_for"

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := WriteFile(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta["model"] != "cilk_for" {
		t.Fatalf("meta lost: %v", got.Meta)
	}
	if len(got.Workers) != 2 {
		t.Fatalf("workers = %d, want 2", len(got.Workers))
	}
	if got.Workers[1].Label != "helper0" {
		t.Fatalf("label = %q, want helper0", got.Workers[1].Label)
	}
	if got.Workers[0].Events[1] != snap.Workers[0].Events[1] {
		t.Fatalf("event changed across roundtrip: %+v vs %+v",
			got.Workers[0].Events[1], snap.Workers[0].Events[1])
	}
}

func TestReadFileRejectsBadVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	tr := &Trace{Version: Version + 1}
	data, _ := json.Marshal(tr)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("future-version trace accepted")
	}
}

func TestExportChromeValidJSON(t *testing.T) {
	tr := New(64)
	r0 := tr.Ring(0)
	r0.Record(KindTaskStart, 0, 0)
	r0.Record(KindSpawn, 0, 0)
	r0.Record(KindTaskEnd, 0, 0)
	r0.Record(KindPark, 0, 0)
	r0.Record(KindUnpark, 0, 0)
	r1 := tr.Ring(1)
	r1.Record(KindSteal, 0, 2)
	r1.Record(KindTaskStart, 0, 0)
	// Deliberately left open: must be closed at the window edge.
	snap := tr.Snapshot()

	var buf bytes.Buffer
	if err := ExportChrome(&buf, snap); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var tasks, instants, metas int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			if e.Dur <= 0 {
				t.Fatalf("span %q has non-positive dur %v", e.Name, e.Dur)
			}
			if e.Name == "task" {
				tasks++
			}
		case "i":
			instants++
		case "M":
			metas++
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	if tasks != 2 {
		t.Fatalf("task spans = %d, want 2 (one closed, one open-at-end)", tasks)
	}
	if instants < 2 {
		t.Fatalf("instants = %d, want spawn + steal", instants)
	}
	if metas == 0 {
		t.Fatal("no metadata events (thread names)")
	}
}

func TestExportChromeSynthesizesLostStart(t *testing.T) {
	// A ring whose TaskStart was overwritten: the lone TaskEnd must
	// still produce a valid span from the window edge.
	wt := WorkerTrace{ID: 0, Label: "w0", Dropped: 1, Events: []Event{
		{TS: 50, Kind: KindSpawn},
		{TS: 100, Kind: KindTaskEnd},
	}}
	evs := workerChromeEvents(wt)
	var spans int
	for _, e := range evs {
		if e.Ph == "X" {
			spans++
			if e.TS != usec(50) {
				t.Fatalf("synthesized span starts at %v, want window edge %v", e.TS, usec(50))
			}
		}
	}
	if spans != 1 {
		t.Fatalf("spans = %d, want 1", spans)
	}
}

// soleBucket returns the bounds of h's only non-empty bucket, failing
// unless h holds exactly one value.
func soleBucket(t *testing.T, h *stats.LogHist) (lo, hi int64) {
	t.Helper()
	if h.N() != 1 {
		t.Fatalf("histogram holds %d values, want 1", h.N())
	}
	h.Buckets(func(l, u, _ int64) { lo, hi = l, u })
	return lo, hi
}

func TestSummarize(t *testing.T) {
	// Hand-built two-worker trace: w0 runs two tasks back to back,
	// w1 steals after hunting and runs one chunk.
	tr := &Trace{Version: Version, Workers: []WorkerTrace{
		{ID: 0, Label: "w0", Events: []Event{
			{TS: 0, Kind: KindTaskStart},
			{TS: 50, Kind: KindSpawn},
			{TS: 100, Kind: KindTaskEnd},
			{TS: 100, Kind: KindTaskStart},
			{TS: 200, Kind: KindTaskEnd},
		}},
		{ID: 1, Label: "w1", Events: []Event{
			{TS: 0, Kind: KindStealFail},
			{TS: 40, Kind: KindSteal, A1: 0, A2: 1},
			{TS: 40, Kind: KindTaskStart},
			{TS: 60, Kind: KindChunkStart, A1: 0, A2: 16},
			{TS: 90, Kind: KindChunkEnd, A1: 0, A2: 16},
			{TS: 100, Kind: KindTaskEnd},
		}},
	}}
	s := Summarize(tr)
	if s.WallNs != 200 {
		t.Fatalf("wall = %d, want 200", s.WallNs)
	}
	w0, w1 := s.Workers[0], s.Workers[1]
	if w0.BusyNs != 200 || w0.Tasks != 2 || w0.Spawns != 1 {
		t.Fatalf("w0 summary wrong: %+v", w0)
	}
	// w1's chunk nests inside its task: busy must not double-count.
	if w1.BusyNs != 60 {
		t.Fatalf("w1 busy = %d, want 60 (nested spans must union)", w1.BusyNs)
	}
	if w1.Steals != 1 || w1.FailedSteals != 1 || w1.Chunks != 1 {
		t.Fatalf("w1 summary wrong: %+v", w1)
	}
	// Hungry since the window edge (TS 0), stole at 40.
	if lo, hi := soleBucket(t, &s.StealLatency); lo != 32 || hi != 64 {
		t.Fatalf("steal latency in [%d, %d), want 40 in [32, 64)", lo, hi)
	}
	if lo, hi := soleBucket(t, &s.ChunkSizes); lo != 16 || hi != 32 {
		t.Fatalf("chunk size in [%d, %d), want 16 in [16, 32)", lo, hi)
	}
	// max busy 200, mean (200+60)/2 = 130.
	if got, want := s.Imbalance, 200.0/130.0; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("imbalance = %v, want %v", got, want)
	}
	var buf bytes.Buffer
	s.Render(&buf)
	out := buf.String()
	for _, want := range []string{"load imbalance", "steal latency (1 successful steals)", "w0", "%"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("summary output missing %q:\n%s", want, out)
		}
	}
}
