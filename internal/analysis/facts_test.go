package analysis_test

import (
	"go/types"
	"os"
	"path/filepath"
	"testing"

	"threading/internal/analysis"
	"threading/internal/analysis/load"
)

type testFact struct {
	N int
}

func (*testFact) AFact() {}

type otherFact struct {
	S string
}

func (*otherFact) AFact() {}

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above working directory")
		}
		dir = parent
	}
}

// TestFactRoundTrip pins the basic store contract: export then import
// by fact type, with isolation between fact types on the same object.
func TestFactRoundTrip(t *testing.T) {
	l := load.New(moduleRoot(t))
	pkgs, err := l.Load("threading/internal/syncprim")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	obj := pkgs[0].Types.Scope().Lookup("NewSenseBarrier")
	if obj == nil {
		t.Fatal("syncprim.NewSenseBarrier not found")
	}

	s := analysis.NewFactStore()
	s.Export(obj, &testFact{N: 42})
	s.Export(obj, &otherFact{S: "x"})

	var got testFact
	if !s.Import(obj, &got) || got.N != 42 {
		t.Fatalf("Import = %v, want N=42", got)
	}
	var other otherFact
	if !s.Import(obj, &other) || other.S != "x" {
		t.Fatalf("Import other fact = %v, want S=x", other)
	}
	var missing testFact
	none := analysis.NewFactStore()
	if none.Import(obj, &missing) {
		t.Fatal("Import from empty store reported a fact")
	}
}

// TestFactCrossPackageIdentity pins the property the interprocedural
// engine depends on: a function object obtained from a *source*
// type-check of its package and the distinct object a *dependent*
// package sees through gc export data resolve to the same fact. This
// is why the store keys by ObjectKey rather than object pointer.
func TestFactCrossPackageIdentity(t *testing.T) {
	l := load.New(moduleRoot(t))
	// forkjoin imports syncprim, so loading both gives us syncprim
	// twice: once from source, once through forkjoin's export-data
	// imports.
	pkgs, err := l.Load("threading/internal/syncprim", "threading/internal/forkjoin")
	if err != nil {
		t.Fatal(err)
	}
	var srcObj, expObj types.Object
	for _, p := range pkgs {
		switch p.ImportPath {
		case "threading/internal/syncprim":
			srcObj = p.Types.Scope().Lookup("NewSenseBarrier")
		case "threading/internal/forkjoin":
			for _, imp := range p.Types.Imports() {
				if imp.Path() == "threading/internal/syncprim" {
					expObj = imp.Scope().Lookup("NewSenseBarrier")
				}
			}
		}
	}
	if srcObj == nil || expObj == nil {
		t.Fatalf("objects not found: src=%v exp=%v", srcObj, expObj)
	}
	if srcObj == expObj {
		t.Fatal("test is vacuous: source and export-data objects are identical")
	}
	if analysis.ObjectKey(srcObj) != analysis.ObjectKey(expObj) {
		t.Fatalf("ObjectKey mismatch: %q vs %q",
			analysis.ObjectKey(srcObj), analysis.ObjectKey(expObj))
	}

	s := analysis.NewFactStore()
	s.Export(srcObj, &testFact{N: 7})
	var got testFact
	if !s.Import(expObj, &got) || got.N != 7 {
		t.Fatalf("fact exported on source object not visible on export-data object: %v", got)
	}
}

// TestObjectKeyMethods pins the method key shape (receiver-qualified).
func TestObjectKeyMethods(t *testing.T) {
	l := load.New(moduleRoot(t))
	pkgs, err := l.Load("threading/internal/syncprim")
	if err != nil {
		t.Fatal(err)
	}
	scope := pkgs[0].Types.Scope()
	barrier := scope.Lookup("SenseBarrier")
	if barrier == nil {
		t.Fatal("SenseBarrier not found")
	}
	named := barrier.Type().(*types.Named)
	var wait types.Object
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == "Wait" {
			wait = named.Method(i)
		}
	}
	if wait == nil {
		t.Fatal("SenseBarrier.Wait not found")
	}
	want := "threading/internal/syncprim.SenseBarrier.Wait"
	if got := analysis.ObjectKey(wait); got != want {
		t.Fatalf("ObjectKey(SenseBarrier.Wait) = %q, want %q", got, want)
	}
}
