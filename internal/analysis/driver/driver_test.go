package driver_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"threading/internal/analysis"
	"threading/internal/analysis/driver"
	"threading/internal/analysis/load"
)

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

func analyzeFixture(t *testing.T) []driver.Finding {
	t.Helper()
	l := load.New(moduleRoot(t))
	pkg, err := l.CheckDir("testdata/src/ignored")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := driver.AnalyzePackageFacts(l.Fset(), pkg, driver.All, analysis.NewFactStore())
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

// TestIgnoreDirective pins the suppression contract: a directive
// silences exactly its named analyzer, on its own line or the line
// below, and a reason is mandatory.
func TestIgnoreDirective(t *testing.T) {
	findings := analyzeFixture(t)

	type key struct {
		analyzer string
		fn       string
	}
	got := make(map[key]bool)
	src, err := os.ReadFile("testdata/src/ignored/ignored.go")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(src), "\n")
	funcOf := func(line int) string {
		for i := line - 1; i >= 0; i-- {
			if strings.HasPrefix(lines[i], "func ") {
				name := strings.TrimPrefix(lines[i], "func ")
				return name[:strings.IndexByte(name, '(')]
			}
		}
		return "?"
	}
	for _, f := range findings {
		got[key{f.Analyzer, funcOf(f.Line)}] = true
	}

	want := map[key]bool{
		// The trailing and line-above grainconst directives suppress
		// their findings; the wrong-analyzer directive does not save
		// ctxdrop; the bare violation and the malformed directive are
		// reported; and a trailing directive does not reach the line
		// below it (the scope fix).
		{"ctxdrop", "wrongAnalyzer"}:    true,
		{"grainconst", "unsuppressed"}:  true,
		{"grainconst", "trailingScope"}: true,
		{"directive", "malformed"}:      true,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings = %v, want %v\nall findings:\n%v", got, want, findings)
	}
}

// TestJSONShape pins the -json output contract: one object per line
// with exactly the documented fields.
func TestJSONShape(t *testing.T) {
	findings := analyzeFixture(t)
	if len(findings) == 0 {
		t.Fatal("fixture produced no findings")
	}

	var buf bytes.Buffer
	if err := driver.WriteJSON(&buf, findings); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(findings) {
		t.Fatalf("got %d JSON lines for %d findings", len(lines), len(findings))
	}
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		for _, field := range []string{"file", "line", "col", "analyzer", "message"} {
			if _, ok := obj[field]; !ok {
				t.Errorf("line %d missing field %q: %s", i+1, field, line)
			}
		}
		if len(obj) != 5 {
			t.Errorf("line %d has %d fields, want 5: %s", i+1, len(obj), line)
		}
		if obj["analyzer"] != findings[i].Analyzer {
			t.Errorf("line %d analyzer = %v, want %s", i+1, obj["analyzer"], findings[i].Analyzer)
		}
	}
}

// TestFindingsSorted pins the deterministic ordering CI diffs rely
// on.
func TestFindingsSorted(t *testing.T) {
	findings := analyzeFixture(t)
	for i := 1; i < len(findings); i++ {
		a, b := findings[i-1], findings[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Errorf("findings out of order: %v before %v", a, b)
		}
	}
}
