package harness

import (
	"strings"
	"testing"
)

func TestFeatureReportAll(t *testing.T) {
	var sb strings.Builder
	if err := FeatureReport(nil, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"TABLE I:", "TABLE II:", "TABLE III:"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q", want)
		}
	}
}

func TestFeatureReportSelect(t *testing.T) {
	var sb strings.Builder
	if err := FeatureReport([]int{2}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "TABLE I:") || !strings.Contains(out, "TABLE II:") {
		t.Error("table selection wrong")
	}
	if err := FeatureReport([]int{7}, &sb); err == nil {
		t.Error("accepted table 7")
	}
}

func TestRunSuiteSingle(t *testing.T) {
	var sb strings.Builder
	results, err := RunSuite(SuiteConfig{
		Config:      Config{Threads: []int{1, 2}, Reps: 1, Scale: 0.002, Verify: true},
		Experiments: []string{"fig2"},
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Experiment.ID != "fig2" {
		t.Fatalf("results = %v", results)
	}
	if !strings.Contains(sb.String(), "fig2") {
		t.Error("output lacks experiment id")
	}
	sum := Summarize(results[0])
	if sum.Experiment != "fig2" || sum.Threads != 2 || sum.Best == "" || sum.Worst == "" {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.WorstOverBest < 1 {
		t.Fatalf("WorstOverBest = %g < 1", sum.WorstOverBest)
	}
}

func TestRunSuiteCSV(t *testing.T) {
	var sb strings.Builder
	_, err := RunSuite(SuiteConfig{
		Config:      Config{Threads: []int{1}, Reps: 1, Scale: 0.001},
		Experiments: []string{"fig1"},
		CSV:         true,
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "experiment,model,threads") {
		t.Error("CSV output missing header")
	}
}

func TestRunSuiteUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if _, err := RunSuite(SuiteConfig{Experiments: []string{"fig42"}}, &sb); err == nil {
		t.Fatal("RunSuite accepted unknown experiment")
	}
}
