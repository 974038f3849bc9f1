// Package features encodes the qualitative half of the reproduced
// paper: Tables I, II and III, which compare eight threading APIs
// (OpenMP, Cilk Plus, TBB, OpenACC, CUDA, OpenCL, C++11, PThreads)
// across parallelism patterns, memory-hierarchy abstraction,
// synchronization, mutual exclusion, language binding, error handling
// and tool support. The tables are data, not prose: they can be
// queried programmatically and rendered as text (cmd/feattable).
package features

import (
	"fmt"
	"sort"
	"strings"
)

// API identifies one of the compared programming models.
type API string

// The eight APIs compared in the paper, in its alphabetical row order.
const (
	CilkPlus API = "Cilk Plus"
	CUDA     API = "CUDA"
	CPP11    API = "C++11"
	OpenACC  API = "OpenACC"
	OpenCL   API = "OpenCL"
	OpenMP   API = "OpenMP"
	PThreads API = "PThread"
	TBB      API = "TBB"
)

// APIs returns the compared APIs in table row order.
func APIs() []API {
	return []API{CilkPlus, CUDA, CPP11, OpenACC, OpenCL, OpenMP, PThreads, TBB}
}

// Feature identifies one comparison column across the three tables.
type Feature string

// Table I — parallelism patterns.
const (
	DataParallelism Feature = "Data parallelism"
	AsyncTasks      Feature = "Async task parallelism"
	EventDriven     Feature = "Data/event-driven"
	Offloading      Feature = "Offloading"
)

// Table II — memory abstraction and synchronization.
const (
	MemoryHierarchy Feature = "Abstraction of memory hierarchy"
	DataBinding     Feature = "Data/computation binding"
	ExplicitDataMap Feature = "Explicit data map/movement"
	Barrier         Feature = "Barrier"
	Reduction       Feature = "Reduction"
	Join            Feature = "Join"
)

// Table III — mutual exclusion and others.
const (
	MutualExclusion Feature = "Mutual exclusion"
	LanguageBinding Feature = "Language or library"
	ErrorHandling   Feature = "Error handling"
	ToolSupport     Feature = "Tool support"
)

// Cell is one table entry: whether the API supports the feature and
// the paper's description of how.
type Cell struct {
	Supported bool
	Detail    string
}

// String renders the cell the way the paper prints it ("x" for
// unsupported).
func (c Cell) String() string {
	if !c.Supported {
		if c.Detail != "" {
			return c.Detail // e.g. "N/A(host only)"
		}
		return "x"
	}
	return c.Detail
}

// Table is one of the paper's comparison tables.
type Table struct {
	Number  int
	Title   string
	Columns []Feature
	cells   map[API]map[Feature]Cell
}

// Cell returns the entry for (api, feature). The second result is
// false if the feature is not a column of this table.
func (t *Table) Cell(api API, f Feature) (Cell, bool) {
	row, ok := t.cells[api]
	if !ok {
		return Cell{}, false
	}
	c, ok := row[f]
	return c, ok
}

// Supports reports whether the table marks (api, feature) supported.
func (t *Table) Supports(api API, f Feature) bool {
	c, ok := t.Cell(api, f)
	return ok && c.Supported
}

// Render writes the table as aligned text.
func (t *Table) Render(sb *strings.Builder) {
	widths := make([]int, len(t.Columns)+1)
	widths[0] = len("API")
	for _, api := range APIs() {
		if len(api) > widths[0] {
			widths[0] = len(string(api))
		}
	}
	rows := make([][]string, 0, len(APIs()))
	for _, api := range APIs() {
		row := []string{string(api)}
		for j, f := range t.Columns {
			c, _ := t.Cell(api, f)
			s := c.String()
			row = append(row, s)
			w := len(string(f))
			if len(s) > w {
				w = len(s)
			}
			if w > widths[j+1] {
				widths[j+1] = w
			}
		}
		rows = append(rows, row)
	}
	fmt.Fprintf(sb, "TABLE %s: %s\n\n", roman(t.Number), t.Title)
	header := []string{"API"}
	for _, f := range t.Columns {
		header = append(header, string(f))
	}
	writeRow(sb, header, widths)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sb, sep, widths)
	for _, row := range rows {
		writeRow(sb, row, widths)
	}
}

func writeRow(sb *strings.Builder, cells []string, widths []int) {
	for i, c := range cells {
		if i > 0 {
			sb.WriteString(" | ")
		}
		fmt.Fprintf(sb, "%-*s", widths[i], c)
	}
	sb.WriteString("\n")
}

func roman(n int) string {
	switch n {
	case 1:
		return "I"
	case 2:
		return "II"
	case 3:
		return "III"
	default:
		return fmt.Sprint(n)
	}
}

// Tables returns the paper's three comparison tables.
func Tables() []*Table {
	return []*Table{TableI(), TableII(), TableIII()}
}

// FeatureCount returns how many of the features across all tables the
// API supports — the paper's observation that OpenMP is the most
// comprehensive model is this count's ordering.
func FeatureCount(api API) int {
	n := 0
	for _, t := range Tables() {
		for _, f := range t.Columns {
			if t.Supports(api, f) {
				n++
			}
		}
	}
	return n
}

// Ranking returns the APIs sorted by descending FeatureCount, ties by
// row order.
func Ranking() []API {
	apis := APIs()
	sort.SliceStable(apis, func(i, j int) bool {
		return FeatureCount(apis[i]) > FeatureCount(apis[j])
	})
	return apis
}
