// Package driver applies the threadvet analyzer suite to packages and
// turns raw diagnostics into findings: positioned, sorted, and
// filtered through //threadvet:ignore directives. cmd/threadvet is a
// thin CLI over this package; tests drive it directly.
package driver

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"threading/internal/analysis"
	"threading/internal/analysis/atomicmix"
	"threading/internal/analysis/blockingtask"
	"threading/internal/analysis/ctxdrop"
	"threading/internal/analysis/grainconst"
	"threading/internal/analysis/handlereuse"
	"threading/internal/analysis/joinleak"
	"threading/internal/analysis/load"
	"threading/internal/analysis/lockorder"
	"threading/internal/analysis/lockspawn"
	"threading/internal/analysis/racecapture"
)

// All is the full threadvet suite.
var All = []*analysis.Analyzer{
	atomicmix.Analyzer,
	blockingtask.Analyzer,
	ctxdrop.Analyzer,
	grainconst.Analyzer,
	handlereuse.Analyzer,
	joinleak.Analyzer,
	lockorder.Analyzer,
	lockspawn.Analyzer,
	racecapture.Analyzer,
}

// directivePrefix introduces a suppression comment:
//
//	//threadvet:ignore <analyzer> <reason>
//
// placed on the flagged line or on the line immediately above it. The
// reason is mandatory — an unexplained suppression is itself a
// finding — and the directive silences exactly the named analyzer.
const directivePrefix = "threadvet:ignore"

// Finding is one unsuppressed diagnostic, positioned for output.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	// Fix holds the resolved edits of the diagnostic's first
	// suggested fix, if any. Deliberately outside the JSON contract
	// (TestJSONShape pins exactly five fields); ApplyFixes consumes
	// it.
	Fix *Fix `json:"-"`
}

// Fix is a suggested fix with its edits resolved to file offsets.
type Fix struct {
	Message string
	Edits   []Edit
}

// Edit replaces the byte range [Start, End) of File (an absolute
// path, unaffected by Run's relative-path rewriting) with NewText.
type Edit struct {
	File       string
	Start, End int
	NewText    string
}

// String renders the finding in the go vet style.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Run loads patterns (go list syntax) relative to dir, applies
// analyzers to every matched package, and returns the unsuppressed
// findings sorted by position. File paths are reported relative to
// dir when possible.
func Run(dir string, patterns []string, analyzers []*analysis.Analyzer) ([]Finding, error) {
	if abs, err := filepath.Abs(dir); err == nil {
		dir = abs
	}
	l := load.New(dir)
	pkgs, err := l.Load(patterns...)
	if err != nil {
		return nil, err
	}
	// One fact store across all packages: Load returns packages in
	// dependency order, so facts exported while analyzing a package
	// are visible when its importers are analyzed (bottom-up
	// cross-package propagation).
	facts := analysis.NewFactStore()
	var out []Finding
	for _, pkg := range pkgs {
		fs, err := AnalyzePackageFacts(l.Fset(), pkg, analyzers, facts)
		if err != nil {
			return nil, err
		}
		out = append(out, fs...)
	}
	for i := range out {
		if rel, err := filepath.Rel(dir, out[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			out[i].File = rel
		}
	}
	sortFindings(out)
	return out, nil
}

// AnalyzePackage applies analyzers to one loaded package with a
// fresh fact store. Single-package convenience over
// AnalyzePackageFacts; fact-driven analyzers see only this package's
// own exports.
func AnalyzePackage(fset *token.FileSet, pkg *load.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	return AnalyzePackageFacts(fset, pkg, analyzers, analysis.NewFactStore())
}

// AnalyzePackageFacts applies analyzers to one loaded package,
// reading and writing cross-package facts through facts, and returns
// the findings that survive the package's ignore directives, sorted
// by position. Malformed directives are reported as findings of the
// pseudo-analyzer "directive".
func AnalyzePackageFacts(fset *token.FileSet, pkg *load.Package, analyzers []*analysis.Analyzer, facts *analysis.FactStore) ([]Finding, error) {
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Facts:     facts,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.ImportPath, err)
		}
	}

	ignores, malformed := collectDirectives(fset, pkg.Files)

	var out []Finding
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if ignores[suppressionKey{file: pos.Filename, line: pos.Line, analyzer: d.Analyzer}] {
			continue
		}
		f := Finding{
			File:     pos.Filename,
			Line:     pos.Line,
			Col:      pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		}
		if len(d.SuggestedFixes) > 0 {
			f.Fix = resolveFix(fset, d.SuggestedFixes[0])
		}
		out = append(out, f)
	}
	out = append(out, malformed...)
	sortFindings(out)
	return out, nil
}

// resolveFix turns a position-based SuggestedFix into offset-based
// edits. Returns nil if any edit's positions are invalid.
func resolveFix(fset *token.FileSet, fix analysis.SuggestedFix) *Fix {
	out := &Fix{Message: fix.Message}
	for _, e := range fix.TextEdits {
		if !e.Pos.IsValid() {
			return nil
		}
		end := e.End
		if !end.IsValid() {
			end = e.Pos
		}
		start := fset.Position(e.Pos)
		stop := fset.Position(end)
		if start.Filename != stop.Filename || stop.Offset < start.Offset {
			return nil
		}
		out.Edits = append(out.Edits, Edit{
			File:    start.Filename,
			Start:   start.Offset,
			End:     stop.Offset,
			NewText: e.NewText,
		})
	}
	return out
}

type suppressionKey struct {
	file     string
	line     int
	analyzer string
}

// parseDirective parses the text following the //threadvet:ignore
// prefix. ok reports a well-formed directive: an analyzer name
// followed by a non-empty reason.
func parseDirective(rest string) (analyzer, reason string, ok bool) {
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return "", "", false
	}
	return fields[0], strings.Join(fields[1:], " "), true
}

// collectDirectives scans the package's comments for
// //threadvet:ignore directives. A well-formed directive suppresses
// its named analyzer on exactly one line: a trailing directive (code
// precedes the comment on its line) suppresses its own line; a
// standalone directive (the comment is the first thing on its line)
// suppresses the line below. Earlier versions registered both lines
// unconditionally, so a trailing directive silently reached the next
// statement; TestDirectiveScope pins the split.
func collectDirectives(fset *token.FileSet, files []*ast.File) (map[suppressionKey]bool, []Finding) {
	ignores := make(map[suppressionKey]bool)
	var malformed []Finding
	srcCache := make(map[string][]byte)
	for _, file := range files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+directivePrefix)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				name, _, ok := parseDirective(text)
				if !ok {
					malformed = append(malformed, Finding{
						File:     pos.Filename,
						Line:     pos.Line,
						Col:      pos.Column,
						Analyzer: "directive",
						Message: "malformed " + directivePrefix +
							" directive: want \"//" + directivePrefix + " <analyzer> <reason>\"",
					})
					continue
				}
				trailing, known := codePrecedes(srcCache, pos)
				switch {
				case !known:
					// Source unreadable (in-memory fixtures, etc.):
					// keep the historical both-lines behavior rather
					// than dropping suppressions.
					ignores[suppressionKey{file: pos.Filename, line: pos.Line, analyzer: name}] = true
					ignores[suppressionKey{file: pos.Filename, line: pos.Line + 1, analyzer: name}] = true
				case trailing:
					ignores[suppressionKey{file: pos.Filename, line: pos.Line, analyzer: name}] = true
				default:
					ignores[suppressionKey{file: pos.Filename, line: pos.Line + 1, analyzer: name}] = true
				}
			}
		}
	}
	return ignores, malformed
}

// codePrecedes reports whether non-whitespace source text precedes
// pos on its line. known is false when the file cannot be read, in
// which case trailing is meaningless.
func codePrecedes(cache map[string][]byte, pos token.Position) (trailing, known bool) {
	src, ok := cache[pos.Filename]
	if !ok {
		src, _ = os.ReadFile(pos.Filename)
		cache[pos.Filename] = src
	}
	if src == nil || pos.Offset > len(src) {
		return false, false
	}
	i := pos.Offset
	for i > 0 && src[i-1] != '\n' {
		i--
	}
	return strings.TrimSpace(string(src[i:pos.Offset])) != "", true
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}

// WriteText writes findings one per line in the go vet style.
func WriteText(w io.Writer, fs []Finding) error {
	for _, f := range fs {
		if _, err := fmt.Fprintln(w, f); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON writes findings as newline-delimited JSON objects, one
// diagnostic per line, for CI annotations and tooling:
//
//	{"file":"internal/x/y.go","line":10,"col":2,"analyzer":"ctxdrop","message":"..."}
func WriteJSON(w io.Writer, fs []Finding) error {
	enc := json.NewEncoder(w)
	for _, f := range fs {
		if err := enc.Encode(f); err != nil {
			return err
		}
	}
	return nil
}
