// Package pathfinder ports the Rodinia PathFinder benchmark: dynamic
// programming on a 2-D grid, finding the minimum-cost path from the
// bottom row to the top moving straight or diagonally. Each row's
// computation is a flat parallel loop over columns; rows are strictly
// ordered — one dependent parallel phase per row, the same structure
// class as HotSpot but with a trivial per-cell kernel, so it stresses
// per-phase runtime overhead harder than any other application here.
//
// (PathFinder is part of the Rodinia suite the paper evaluates from;
// it is included as an extension workload.)
package pathfinder

import (
	"context"

	"threading/internal/models"
	"threading/internal/shard"
)

// Grid is a rows x cols field of step costs.
type Grid struct {
	Rows, Cols int
	Weight     []int32 // row-major
}

func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Generate builds a deterministic grid with weights in [0, 10), the
// Rodinia input distribution.
func Generate(rows, cols int, seed uint64) *Grid {
	if rows < 1 || cols < 1 {
		panic("pathfinder: grid must be at least 1x1")
	}
	g := &Grid{Rows: rows, Cols: cols, Weight: make([]int32, rows*cols)}
	st := seed
	for i := range g.Weight {
		g.Weight[i] = int32(splitmix64(&st) % 10)
	}
	return g
}

// stepRange advances the DP for columns [lo, hi) of row r: dst[j] =
// weight[r][j] + min of the up-to-three reachable cells of src. It is
// the one DP step Seq, Parallel and ParallelCtx all run.
//
// The weights are random, so which of the three cells is smallest is a
// coin flip per cell: a compare-and-branch form mispredicts about half
// its branches and spends most of its time there, not in the
// arithmetic. So the two edge columns, the only cells with fewer than
// three neighbours, are handled outside the loop, and the interior
// takes the builtin min of a three-cell window carried in registers,
// which compiles to conditional moves. The re-sliced rows have equal
// lengths, which lets the compiler drop the per-cell bounds checks.
func stepRange(g *Grid, dst, src []int32, r, lo, hi int) {
	n := g.Cols
	w := g.Weight[r*n : (r+1)*n]
	if lo >= hi {
		return
	}
	if n == 1 {
		dst[0] = w[0] + src[0]
		return
	}
	if lo == 0 {
		dst[0] = w[0] + min(src[0], src[1])
		lo = 1
	}
	end := min(hi, n-1)
	if lo < end {
		s := src[lo-1 : end+1]
		a, b := s[0], s[1]
		s = s[2:]
		d := dst[lo:end]
		d = d[:len(s)]
		ww := w[lo:end]
		ww = ww[:len(s)]
		for i, c := range s {
			d[i] = ww[i] + min(a, b, c)
			a, b = b, c
		}
	}
	if hi == n {
		dst[n-1] = w[n-1] + min(src[n-2], src[n-1])
	}
}

// Seq computes the DP sequentially and returns the final cost row
// (minimum path cost ending at each top-row column).
func Seq(g *Grid) []int32 {
	cur := make([]int32, g.Cols)
	next := make([]int32, g.Cols)
	copy(cur, g.Weight[:g.Cols])
	for r := 1; r < g.Rows; r++ {
		stepRange(g, next, cur, r, 0, g.Cols)
		cur, next = next, cur
	}
	return cur
}

// Parallel computes the DP under model m, one parallel loop over
// columns per row; the model's join is the row dependency.
func Parallel(m models.Model, g *Grid) []int32 {
	cur := make([]int32, g.Cols)
	next := make([]int32, g.Cols)
	copy(cur, g.Weight[:g.Cols])
	for r := 1; r < g.Rows; r++ {
		src, dst, row := cur, next, r
		models.Must(m.ParallelForCtx(context.Background(), g.Cols, func(lo, hi int) {
			stepRange(g, dst, src, row, lo, hi)
		}))
		cur, next = next, cur
	}
	return cur
}

// ParallelCtx computes the DP by driving ex, one ParallelForCtx per
// row, honoring ctx at every chunk boundary — the deadline-aware,
// concurrent-safe form a service uses (cmd/threadserve). cur and next
// are scratch rows of at least g.Cols elements; pass nil to allocate.
// Callers that pool the scratch must copy what they need out of the
// returned row (it aliases one of the two buffers) before recycling.
// On error the partial DP state is meaningless and nil is returned.
func ParallelCtx(ctx context.Context, ex shard.Executor, g *Grid, grain int, cur, next []int32) ([]int32, error) {
	if len(cur) < g.Cols || len(next) < g.Cols {
		cur = make([]int32, g.Cols)
		next = make([]int32, g.Cols)
	}
	cur, next = cur[:g.Cols], next[:g.Cols]
	copy(cur, g.Weight[:g.Cols])
	for r := 1; r < g.Rows; r++ {
		src, dst, row := cur, next, r
		if err := ex.ParallelForCtx(ctx, 0, g.Cols, grain, func(lo, hi int) {
			stepRange(g, dst, src, row, lo, hi)
		}); err != nil {
			return nil, err
		}
		cur, next = next, cur
	}
	return cur, nil
}

// View returns a sub-grid restricted to the first rows rows, sharing
// the backing weights — a cheap way for a service to serve
// variable-depth requests off one pre-generated grid. rows is clamped
// to [1, g.Rows].
func (g *Grid) View(rows int) *Grid {
	if rows < 1 {
		rows = 1
	}
	if rows > g.Rows {
		rows = g.Rows
	}
	return &Grid{Rows: rows, Cols: g.Cols, Weight: g.Weight[:rows*g.Cols]}
}

// MinCost returns the smallest value in a result row.
func MinCost(costs []int32) int32 {
	best := costs[0]
	for _, c := range costs[1:] {
		if c < best {
			best = c
		}
	}
	return best
}
