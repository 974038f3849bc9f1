package pathfinder

import (
	"context"
	"errors"
	"testing"
	"testing/quick"

	"threading/internal/models"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(10, 20, 3)
	b := Generate(10, 20, 3)
	for i := range a.Weight {
		if a.Weight[i] != b.Weight[i] {
			t.Fatal("generator not deterministic")
		}
		if a.Weight[i] < 0 || a.Weight[i] >= 10 {
			t.Fatalf("weight %d out of [0,10)", a.Weight[i])
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Generate(0, 5) did not panic")
		}
	}()
	Generate(0, 5, 1)
}

func TestSeqKnownGrid(t *testing.T) {
	// 3x3 grid, hand-checked DP.
	g := &Grid{Rows: 3, Cols: 3, Weight: []int32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}}
	// Row 0: [1 2 3]
	// Row 1: 4+min(1,2)=5; 5+min(1,2,3)=6; 6+min(2,3)=8
	// Row 2: 7+min(5,6)=12; 8+min(5,6,8)=13; 9+min(6,8)=15
	want := []int32{12, 13, 15}
	got := Seq(g)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if MinCost(got) != 12 {
		t.Fatalf("MinCost = %d", MinCost(got))
	}
}

func TestSingleRow(t *testing.T) {
	g := &Grid{Rows: 1, Cols: 4, Weight: []int32{3, 1, 4, 1}}
	got := Seq(g)
	for i, v := range []int32{3, 1, 4, 1} {
		if got[i] != v {
			t.Fatalf("single-row DP wrong: %v", got)
		}
	}
}

func TestParallelMatchesSeq(t *testing.T) {
	g := Generate(100, 4000, 17)
	want := Seq(g)
	for _, name := range models.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			m := models.MustNew(name, 4)
			defer m.Close()
			got := Parallel(m, g)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("column %d: %d, want %d", j, got[j], want[j])
				}
			}
		})
	}
}

func TestQuickSmallGrids(t *testing.T) {
	m := models.MustNew(models.CilkSpawn, 3)
	defer m.Close()
	check := func(r8, c8 uint8, seed uint64) bool {
		rows := int(r8%20) + 1
		cols := int(c8%50) + 1
		g := Generate(rows, cols, seed)
		want := Seq(g)
		got := Parallel(m, g)
		for j := range want {
			if got[j] != want[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMonotonicity(t *testing.T) {
	// Costs only accumulate: result >= first row minimum.
	g := Generate(50, 200, 5)
	res := Seq(g)
	var rowMin int32 = 10
	for j := 0; j < g.Cols; j++ {
		if g.Weight[j] < rowMin {
			rowMin = g.Weight[j]
		}
	}
	if MinCost(res) < rowMin {
		t.Fatalf("final cost %d below first-row minimum %d", MinCost(res), rowMin)
	}
}

func TestParallelCtxMatchesSeq(t *testing.T) {
	g := Generate(16, 500, 7)
	want := Seq(g)
	ex, err := models.NewExecutor(models.CilkFor, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	got, err := ParallelCtx(context.Background(), ex, g, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("col %d: ParallelCtx %d != Seq %d", j, got[j], want[j])
		}
	}
	// Caller-provided scratch gives the same answer.
	cur, next := make([]int32, g.Cols), make([]int32, g.Cols)
	got2, err := ParallelCtx(context.Background(), ex, g, 32, cur, next)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if got2[j] != want[j] {
			t.Fatalf("col %d with scratch: %d != %d", j, got2[j], want[j])
		}
	}
}

func TestParallelCtxCanceled(t *testing.T) {
	g := Generate(8, 100, 7)
	ex, err := models.NewExecutor(models.OMPFor, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ParallelCtx(ctx, ex, g, 0, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("ParallelCtx on canceled ctx = %v, want Canceled", err)
	}
}

func TestGridView(t *testing.T) {
	g := Generate(16, 50, 3)
	v := g.View(4)
	if v.Rows != 4 || v.Cols != 50 || len(v.Weight) != 200 {
		t.Fatalf("View(4) = %dx%d/%d", v.Rows, v.Cols, len(v.Weight))
	}
	// The view's DP equals a freshly truncated grid's.
	want := Seq(&Grid{Rows: 4, Cols: 50, Weight: g.Weight[:200]})
	got := Seq(v)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("col %d: view %d != truncated %d", j, got[j], want[j])
		}
	}
	if v := g.View(0); v.Rows != 1 {
		t.Fatalf("View(0).Rows = %d, want clamp to 1", v.Rows)
	}
	if v := g.View(99); v.Rows != 16 {
		t.Fatalf("View(99).Rows = %d, want clamp to 16", v.Rows)
	}
}

// refStep is the per-cell DP step with its edge checks inline: the
// compare-and-branch formula, kept here as an independent reference
// for the branch-free stepRange.
func refStep(g *Grid, dst, src []int32, r int) {
	row := g.Weight[r*g.Cols : (r+1)*g.Cols]
	for j := 0; j < g.Cols; j++ {
		best := src[j]
		if j > 0 && src[j-1] < best {
			best = src[j-1]
		}
		if j < g.Cols-1 && src[j+1] < best {
			best = src[j+1]
		}
		dst[j] = row[j] + best
	}
}

// refRows returns every row of the reference DP, row 0 included.
func refRows(g *Grid) [][]int32 {
	rows := [][]int32{append([]int32(nil), g.Weight[:g.Cols]...)}
	for r := 1; r < g.Rows; r++ {
		next := make([]int32, g.Cols)
		refStep(g, next, rows[r-1], r)
		rows = append(rows, next)
	}
	return rows
}

// chunkings returns chunk boundary lists over [0, cols) that put a
// chunk edge at column 1 and at cols-1 (alone and together, with and
// without a middle cut), plus all 1-column chunks. Every list starts
// at 0 and ends at cols.
func chunkings(cols int) [][]int {
	out := [][]int{{0, cols}}
	add := func(cuts ...int) {
		b := []int{0}
		for _, c := range cuts {
			if c > b[len(b)-1] && c < cols {
				b = append(b, c)
			}
		}
		out = append(out, append(b, cols))
	}
	add(1)
	add(cols - 1)
	add(1, cols-1)
	add(1, cols/2, cols-1)
	ones := make([]int, 0, cols+1)
	for j := 0; j <= cols; j++ {
		ones = append(ones, j)
	}
	return append(out, ones)
}

var refCols = []int{1, 2, 3, 4, 5, 64, 1000}

// TestStepRangeMatchesReference drives stepRange chunk by chunk over
// several rows and checks every row against refStep. Each chunk runs
// on a sentinel-filled row, so a chunk that skips one of its columns
// or writes outside [lo, hi) fails too.
func TestStepRangeMatchesReference(t *testing.T) {
	const sentinel = -1
	for _, cols := range refCols {
		for seed := uint64(1); seed <= 3; seed++ {
			g := Generate(6, cols, seed)
			want := refRows(g)
			for _, bounds := range chunkings(cols) {
				cur := append([]int32(nil), want[0]...)
				for r := 1; r < g.Rows; r++ {
					next := make([]int32, cols)
					for k := 0; k+1 < len(bounds); k++ {
						lo, hi := bounds[k], bounds[k+1]
						dst := make([]int32, cols)
						for j := range dst {
							dst[j] = sentinel
						}
						stepRange(g, dst, cur, r, lo, hi)
						for j := range dst {
							exp := int32(sentinel)
							if j >= lo && j < hi {
								exp = want[r][j]
							}
							if dst[j] != exp {
								t.Fatalf("cols %d seed %d chunks %v row %d: chunk [%d,%d) col %d = %d, want %d",
									cols, seed, bounds, r, lo, hi, j, dst[j], exp)
							}
						}
						copy(next[lo:hi], dst[lo:hi])
					}
					cur = next
				}
			}
			got := Seq(g)
			for j := range got {
				if got[j] != want[g.Rows-1][j] {
					t.Fatalf("cols %d seed %d: Seq col %d = %d, want %d", cols, seed, j, got[j], want[g.Rows-1][j])
				}
			}
		}
	}
}

// TestParallelCtxGrainOneMatchesReference runs the DP through the
// loop executors at grain 1, so chunk edges land wherever each
// runtime's splitting puts them, and checks the final row against
// the reference.
func TestParallelCtxGrainOneMatchesReference(t *testing.T) {
	for _, name := range []string{models.OMPFor, models.CilkFor} {
		t.Run(name, func(t *testing.T) {
			ex, err := models.NewExecutor(name, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer ex.Close()
			for _, cols := range refCols {
				g := Generate(8, cols, 11)
				want := refRows(g)[g.Rows-1]
				got, err := ParallelCtx(context.Background(), ex, g, 1, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("cols %d: col %d = %d, want %d", cols, j, got[j], want[j])
					}
				}
			}
		})
	}
}
