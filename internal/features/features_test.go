package features

import (
	"strings"
	"testing"
)

// supports reports whether the paper marks (api, f) supported in the
// table that lists f.
func supports(api API, f Feature) bool {
	for _, t := range Tables() {
		if t.Supports(api, f) {
			return true
		}
	}
	return false
}

func TestAPIsComplete(t *testing.T) {
	if len(APIs()) != 8 {
		t.Fatalf("APIs() = %v, want 8 entries", APIs())
	}
}

func TestTablesComplete(t *testing.T) {
	// Every table must have a cell for every API/column pair.
	for _, tab := range Tables() {
		for _, api := range APIs() {
			for _, f := range tab.Columns {
				if _, ok := tab.Cell(api, f); !ok {
					t.Errorf("table %d missing cell (%s, %s)", tab.Number, api, f)
				}
			}
		}
	}
}

// TestPaperFactsTableI pins cells of Table I to the paper.
func TestPaperFactsTableI(t *testing.T) {
	facts := []struct {
		api     API
		f       Feature
		support bool
	}{
		// Async tasking is the foundational mechanism supported by all.
		{CilkPlus, AsyncTasks, true}, {CUDA, AsyncTasks, true},
		{CPP11, AsyncTasks, true}, {OpenACC, AsyncTasks, true},
		{OpenCL, AsyncTasks, true}, {OpenMP, AsyncTasks, true},
		{PThreads, AsyncTasks, true}, {TBB, AsyncTasks, true},
		// C++11 and PThreads have no data-parallel construct.
		{CPP11, DataParallelism, false},
		{PThreads, DataParallelism, false},
		// Host-only models do not offload.
		{CilkPlus, Offloading, false}, {TBB, Offloading, false},
		{CPP11, Offloading, false}, {PThreads, Offloading, false},
		// Offloading models.
		{OpenMP, Offloading, true}, {OpenACC, Offloading, true},
		{CUDA, Offloading, true}, {OpenCL, Offloading, true},
		// Event-driven support.
		{OpenMP, EventDriven, true}, {CilkPlus, EventDriven, false},
		{PThreads, EventDriven, false}, {TBB, EventDriven, true},
	}
	for _, fact := range facts {
		if got := supports(fact.api, fact.f); got != fact.support {
			t.Errorf("supports(%s, %s) = %v, want %v", fact.api, fact.f, got, fact.support)
		}
	}
}

// TestPaperFactsTableII pins cells of Table II.
func TestPaperFactsTableII(t *testing.T) {
	// Only OpenMP provides memory-hierarchy abstraction AND
	// computation/data binding.
	var got []API
	for _, api := range APIs() {
		if supports(api, DataBinding) {
			got = append(got, api)
		}
	}
	if len(got) != 2 || got[0] != OpenMP && got[1] != OpenMP {
		// The paper credits OpenMP (proc_bind) and TBB (affinity
		// partitioner).
		t.Errorf("APIs supporting DataBinding = %v, want [OpenMP TBB]", got)
	}
	if !supports(OpenMP, Barrier) || !supports(PThreads, Barrier) {
		t.Error("OpenMP and PThreads must support barriers")
	}
	if supports(CPP11, Barrier) {
		t.Error("C++11 has no barrier in the paper's table")
	}
	if supports(TBB, Barrier) {
		t.Error("TBB tasking model omits barriers by design")
	}
	if !supports(CilkPlus, Reduction) || !supports(TBB, Reduction) {
		t.Error("Cilk Plus and TBB provide reducers")
	}
	if supports(CUDA, Reduction) {
		t.Error("CUDA has no reduction construct in Table II")
	}
}

// TestPaperFactsTableIII pins cells of Table III.
func TestPaperFactsTableIII(t *testing.T) {
	// Locks/mutexes: every API has some mutual-exclusion mechanism.
	for _, api := range APIs() {
		if !supports(api, MutualExclusion) {
			t.Errorf("%s must support mutual exclusion", api)
		}
	}
	// Only OpenMP and OpenACC have Fortran bindings.
	for _, api := range APIs() {
		c, _ := TableIII().Cell(api, LanguageBinding)
		hasFortran := strings.Contains(c.Detail, "Fortran")
		wantFortran := api == OpenMP || api == OpenACC
		if hasFortran != wantFortran {
			t.Errorf("%s Fortran binding = %v, want %v", api, hasFortran, wantFortran)
		}
	}
	// Dedicated error models.
	if !supports(OpenMP, ErrorHandling) {
		t.Error("OpenMP has omp cancel")
	}
	if supports(CilkPlus, ErrorHandling) || supports(CUDA, ErrorHandling) {
		t.Error("Cilk Plus and CUDA lack dedicated error handling in the table")
	}
}

func TestOpenMPMostComprehensive(t *testing.T) {
	// The paper: "OpenMP provides the most comprehensive set of
	// features".
	if r := Ranking(); r[0] != OpenMP {
		t.Fatalf("Ranking()[0] = %s, want OpenMP (counts: %d vs %d)",
			r[0], FeatureCount(r[0]), FeatureCount(OpenMP))
	}
}

func TestFeatureCountBounds(t *testing.T) {
	total := 0
	for _, tab := range Tables() {
		total += len(tab.Columns)
	}
	for _, api := range APIs() {
		n := FeatureCount(api)
		if n < 1 || n > total {
			t.Errorf("FeatureCount(%s) = %d out of bounds (1..%d)", api, n, total)
		}
	}
}

func TestCellString(t *testing.T) {
	if yes("foo").String() != "foo" {
		t.Error("supported cell should print its detail")
	}
	if no().String() != "x" {
		t.Error("unsupported cell should print x")
	}
	if na("N/A(host only)").String() != "N/A(host only)" {
		t.Error("n/a cell should print its marker")
	}
}

func TestRenderContainsEverything(t *testing.T) {
	var sb strings.Builder
	for _, tab := range Tables() {
		tab.Render(&sb)
		sb.WriteString("\n")
	}
	out := sb.String()
	for _, api := range APIs() {
		if !strings.Contains(out, string(api)) {
			t.Errorf("render lacks API %s", api)
		}
	}
	for _, want := range []string{"TABLE I:", "TABLE II:", "TABLE III:",
		"cilk_spawn/cilk_sync", "proc_bind clause", "omp cancel"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q", want)
		}
	}
}

func TestCellUnknownAPI(t *testing.T) {
	if _, ok := TableI().Cell(API("Rust"), DataParallelism); ok {
		t.Fatal("Cell accepted unknown API")
	}
}
