package harness

import (
	"context"
	"strings"
	"testing"
	"time"

	"threading/internal/models"
	"threading/internal/stats"
)

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	want := []string{"fig1", "fig2", "fig3", "fig4", "fig5",
		"fig6", "fig7", "fig8", "fig9", "fig10"}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs[%d] = %s, want %s", i, ids[i], want[i])
		}
	}
	for _, id := range ids {
		e, ok := ByID(id)
		if !ok || e.ID != id {
			t.Fatalf("ByID(%s) failed", id)
		}
		if e.Title == "" || e.Finding == "" || len(e.Models) == 0 || e.Prepare == nil {
			t.Fatalf("%s is underspecified: %+v", id, e)
		}
	}
	if _, ok := ByID("fig99"); ok {
		t.Fatal("ByID accepted unknown id")
	}
}

func TestFig5ModelsAreTaskCapable(t *testing.T) {
	e, _ := ByID("fig5")
	for _, name := range e.Models {
		m := models.MustNew(name, 1)
		if err := m.TaskRunCtx(context.Background(), func(models.TaskScope) {}); err != nil {
			t.Errorf("fig5 model %s cannot run a task tree: %v", name, err)
		}
		m.Close()
	}
}

func TestDefaultThreadsShape(t *testing.T) {
	ts := DefaultThreads()
	if len(ts) == 0 || ts[0] != 1 {
		t.Fatalf("DefaultThreads = %v", ts)
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] != 2*ts[i-1] {
			t.Fatalf("DefaultThreads not doubling: %v", ts)
		}
	}
}

// TestAllWorkloadsVerifyTiny prepares every figure at a tiny scale and
// verifies each model's output against the sequential reference — the
// end-to-end correctness gate for the entire harness.
func TestAllWorkloadsVerifyTiny(t *testing.T) {
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			w := e.Prepare(0.004) // tiny
			if w.Desc == "" {
				t.Error("workload lacks a description")
			}
			w.Seq()
			for _, name := range e.Models {
				m := models.MustNew(name, 3)
				if w.Check != nil {
					if err := w.Check(m); err != nil {
						t.Errorf("%s under %s: %v", e.ID, name, err)
					}
				}
				w.Run(m)
				m.Close()
			}
		})
	}
}

func TestRunProducesFullGrid(t *testing.T) {
	e, _ := ByID("fig1")
	res, err := Run(e, Config{Threads: []int{1, 2}, Reps: 2, Scale: 0.003, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.SeqTime <= 0 {
		t.Fatal("sequential time not measured")
	}
	for _, m := range e.Models {
		for _, th := range []int{1, 2} {
			s, ok := res.Cells[m][th]
			if !ok || s.N != 2 || s.Min <= 0 {
				t.Fatalf("missing or empty cell (%s, %d): %+v", m, th, s)
			}
		}
	}
}

// The sample-export hook the benchmark gate is built on: with
// KeepSamples the raw per-repetition timings survive summarization,
// one per rep, consistent with the summarized cell; without it the
// result stays lean.
func TestKeepSamplesExportsRawTimings(t *testing.T) {
	e, _ := ByID("fig2")
	res, err := Run(e, Config{Threads: []int{2}, Reps: 3, Scale: 0.003, KeepSamples: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range e.Models {
		ts, ok := res.RawSamples[m][2]
		if !ok || len(ts) != 3 {
			t.Fatalf("RawSamples[%s][2] = %v, want 3 samples", m, ts)
		}
		min := ts[0]
		for _, d := range ts {
			if d <= 0 {
				t.Fatalf("%s: non-positive sample %v", m, d)
			}
			if d < min {
				min = d
			}
		}
		if got := res.Cells[m][2].Min; got != min {
			t.Errorf("%s: summarized min %v != min of raw samples %v", m, got, min)
		}
	}

	res, err = Run(e, Config{Threads: []int{1}, Reps: 1, Scale: 0.003})
	if err != nil {
		t.Fatal(err)
	}
	if res.RawSamples != nil {
		t.Error("RawSamples allocated without KeepSamples")
	}
}

// Config.Grain reaches the cilk_for decomposition: at a tiny fixed
// grain the eager partitioner must create far more tasks than the
// default heuristic.
func TestGrainReachesCilkFor(t *testing.T) {
	e, _ := ByID("fig1")
	stressed, err := Run(e, Config{Threads: []int{1}, Reps: 1, Scale: 0.01, Grain: 8, Stats: true})
	if err != nil {
		t.Fatal(err)
	}
	def, err := Run(e, Config{Threads: []int{1}, Reps: 1, Scale: 0.01, Stats: true})
	if err != nil {
		t.Fatal(err)
	}
	sg := stressed.Sched["cilk_for"][1].Spawns
	dg := def.Sched["cilk_for"][1].Spawns
	if sg <= dg {
		t.Errorf("grain 8 spawns (%d) not above default-grain spawns (%d)", sg, dg)
	}
}

func TestRenderOutputs(t *testing.T) {
	e, _ := ByID("fig2")
	res, err := Run(e, Config{Threads: []int{1}, Reps: 1, Scale: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res.Render(&sb)
	out := sb.String()
	for _, want := range []string{"fig2", "workload:", "paper:", "speedup", "threads"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q", want)
		}
	}
	var csv strings.Builder
	res.RenderCSV(&csv)
	if !strings.Contains(csv.String(), "experiment,model,threads") {
		t.Error("CSV header missing")
	}
	lines := strings.Count(strings.TrimSpace(csv.String()), "\n")
	if lines != len(e.Models) { // header + one line per model at 1 thread count
		t.Errorf("CSV has %d data lines, want %d", lines, len(e.Models))
	}
}

func TestBestWorstRatio(t *testing.T) {
	e, _ := ByID("fig1")
	res := &Result{
		Experiment: e,
		Threads:    []int{2},
		Models:     []string{"a", "b"},
		Cells: map[string]map[int]stats.Sample{
			"a": {2: stats.Sample{Min: 10 * time.Millisecond}},
			"b": {2: stats.Sample{Min: 20 * time.Millisecond}},
		},
	}
	if res.BestModel(2) != "a" || res.WorstModel(2) != "b" {
		t.Fatalf("best/worst = %s/%s", res.BestModel(2), res.WorstModel(2))
	}
	if r := res.Ratio("b", "a", 2); r != 2 {
		t.Fatalf("Ratio = %g, want 2", r)
	}
}

func TestScaleHelpers(t *testing.T) {
	if scaleLin(100, 0.5) != 50 || scaleLin(10, 0.001) != 1 {
		t.Error("scaleLin wrong")
	}
	if scaleDim(100, 0.25) != 50 || scaleDim(4, 0.0001) != 2 {
		t.Error("scaleDim wrong")
	}
	if scaleCube(100, 0.125) != 50 {
		t.Error("scaleCube wrong")
	}
	if scaleFib(30, 0.5) != 29 || scaleFib(30, 1) != 30 || scaleFib(20, 1e-9) != 10 {
		t.Error("scaleFib wrong")
	}
}
