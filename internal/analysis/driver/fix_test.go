package driver_test

import (
	"os"
	"path/filepath"
	"testing"

	"threading/internal/analysis"
	"threading/internal/analysis/driver"
	"threading/internal/analysis/load"
)

// fixDir copies the fixable fixture into a fresh directory (the
// fixture itself must stay pristine for other runs) and returns the
// copy's path.
func fixDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	entries, err := os.ReadDir("testdata/src/fixable")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		src, err := os.ReadFile(filepath.Join("testdata/src/fixable", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// analyzeDir loads and analyzes one directory with a fresh loader
// (file offsets change between fix rounds, so the FileSet must not
// be reused).
func analyzeDir(t *testing.T, dir string) []driver.Finding {
	t.Helper()
	l := load.New(moduleRoot(t))
	pkg, err := l.CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := driver.AnalyzePackageFacts(l.Fset(), pkg, driver.All, analysis.NewFactStore())
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

func readAll(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(src)
	}
	return out
}

// TestFixIdempotent pins the -fix contract: one application resolves
// every fixable finding, and a second application changes nothing.
func TestFixIdempotent(t *testing.T) {
	dir := fixDir(t)

	findings := analyzeDir(t, dir)
	if len(findings) == 0 {
		t.Fatal("fixable fixture produced no findings")
	}
	var fixable int
	for _, f := range findings {
		if f.Fix != nil {
			fixable++
		}
	}
	if fixable < 2 {
		t.Fatalf("want >= 2 fixable findings (ctxdrop + handlereuse), got %d of %d:\n%v",
			fixable, len(findings), findings)
	}

	applied, unfixed, err := driver.ApplyFixes(findings)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != fixable {
		t.Fatalf("applied %d fixes, want %d (unfixed: %v)", len(applied), fixable, unfixed)
	}

	// Round two: the fixed package must be clean of fixable findings
	// and a second ApplyFixes must not touch the files.
	after := readAll(t, dir)
	round2 := analyzeDir(t, dir)
	for _, f := range round2 {
		if f.Fix != nil {
			t.Errorf("finding still fixable after -fix: %v", f)
		}
	}
	if _, _, err := driver.ApplyFixes(round2); err != nil {
		t.Fatal(err)
	}
	if again := readAll(t, dir); len(again) != len(after) {
		t.Fatalf("second apply changed the file set")
	} else {
		for name, content := range after {
			if again[name] != content {
				t.Errorf("second apply modified %s", name)
			}
		}
	}
}

// TestFixResolvesFindings spells out what the fixes do: the ctxdrop
// rewrite introduces RunCtx(ctx, ...) and the handlereuse fix
// deletes the duplicated Close.
func TestFixResolvesFindings(t *testing.T) {
	dir := fixDir(t)
	findings := analyzeDir(t, dir)
	if _, _, err := driver.ApplyFixes(findings); err != nil {
		t.Fatal(err)
	}
	src := readAll(t, dir)["fixable.go"]
	if !contains(src, "p.RunCtx(ctx, func(c *worksteal.Ctx) {})") {
		t.Errorf("ctxdrop fix not applied:\n%s", src)
	}
	if n := countOccurrences(src, "p.Close()"); n != 1 {
		t.Errorf("want exactly 1 p.Close() after fix, got %d:\n%s", n, src)
	}
}

func contains(s, sub string) bool { return countOccurrences(s, sub) > 0 }

func countOccurrences(s, sub string) int {
	n := 0
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			n++
		}
	}
	return n
}
