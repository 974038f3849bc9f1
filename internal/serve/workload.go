package serve

import (
	"context"
	"fmt"
	"math"
	"sync"

	"threading/internal/rodinia/pathfinder"
)

// workload holds the pre-generated request inputs. Inputs are built
// once at server start and only ever read by requests; every output a
// request writes lives in a pooled per-request buffer, so concurrent
// requests share no mutable state.
//
// Sizes derive from one knob n (Config.WorkSize): the vector kernels
// run over n elements, matvec over a sqrt(n)-sided matrix (so one
// request is ~n multiply-adds for every kernel), and the PathFinder
// grid keeps gridRows rows of n/4 columns — requests select how many
// rows (phases) to run, which is how a caller shapes a deliberately
// deadline-busting request.
type workload struct {
	n    int
	x, y []float64

	matN int       // matrix side
	mat  []float64 // matN x matN, row-major

	grid *pathfinder.Grid

	fbufs sync.Pool // *[]float64, len n — axpy/matvec outputs
	ibufs sync.Pool // *[]int32, len grid.Cols — pathfinder scratch
}

// gridRows is the pre-generated PathFinder depth: the default request
// uses defaultRows phases, and ?rows= may ask up to gridRows.
const (
	gridRows    = 64
	defaultRows = 8
)

func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func newWorkload(n int) *workload {
	w := &workload{n: n}
	w.x = make([]float64, n)
	w.y = make([]float64, n)
	st := uint64(42)
	for i := 0; i < n; i++ {
		w.x[i] = float64(splitmix64(&st)%1000) / 1000
		w.y[i] = float64(splitmix64(&st)%1000) / 1000
	}

	w.matN = int(math.Sqrt(float64(n)))
	if w.matN < 16 {
		w.matN = 16
	}
	w.mat = make([]float64, w.matN*w.matN)
	for i := range w.mat {
		w.mat[i] = float64(splitmix64(&st)%1000) / 1000
	}

	cols := n / 4
	if cols < 64 {
		cols = 64
	}
	w.grid = pathfinder.Generate(gridRows, cols, 42)

	w.fbufs.New = func() any { b := make([]float64, n); return &b }
	w.ibufs.New = func() any { b := make([]int32, cols); return &b }
	return w
}

// kernelReq is one parsed kernel request.
type kernelReq struct {
	kernel string
	n      int // vector/matrix extent; clamped to the workload
	rows   int // pathfinder phases; clamped to gridRows
}

// Kernels lists the servable kernels.
func Kernels() []string { return []string{"sum", "axpy", "matvec", "pathfinder"} }

// clamp resolves a request's extents against the workload.
func (w *workload) clamp(req kernelReq) (kernelReq, error) {
	switch req.kernel {
	case "sum", "axpy":
		if req.n <= 0 || req.n > w.n {
			req.n = w.n
		}
	case "matvec":
		if req.n <= 0 || req.n > w.matN {
			req.n = w.matN
		}
	case "pathfinder":
		if req.rows <= 0 {
			req.rows = defaultRows
		}
		if req.rows > gridRows {
			req.rows = gridRows
		}
	default:
		return req, fmt.Errorf("serve: unknown kernel %q (have %v)", req.kernel, Kernels())
	}
	return req, nil
}

// run executes one kernel request on the server's executor and
// returns a result checksum. Every output buffer is returned to its
// pool before run returns — by then the loop has drained, even on
// cancellation, so no task can still be writing into it.
func (s *Server) run(ctx context.Context, req kernelReq) (float64, error) {
	req, err := s.work.clamp(req)
	if err != nil {
		return 0, err
	}
	switch req.kernel {
	case "sum":
		return s.sumRange(ctx, 0, req.n)
	case "axpy":
		return s.axpy(ctx, req.n)
	case "matvec":
		return s.matvec(ctx, req.n)
	case "pathfinder":
		return s.pathfinder(ctx, req.rows)
	}
	panic("unreachable")
}

// sumRange reduces x over [lo, hi) — also the fan-out sub-request.
func (s *Server) sumRange(ctx context.Context, lo, hi int) (float64, error) {
	w := s.work
	return s.exec.ParallelReduceCtx(ctx, lo, hi, s.cfg.Grain, 0,
		func(l, h int, acc float64) float64 { return acc + sumChunk(w.x[l:h]) },
		func(a, b float64) float64 { return a + b })
}

func (s *Server) axpy(ctx context.Context, n int) (float64, error) {
	w := s.work
	outp := w.fbufs.Get().(*[]float64)
	defer w.fbufs.Put(outp)
	out := *outp
	const a = 2.5
	err := s.exec.ParallelForCtx(ctx, 0, n, s.cfg.Grain, func(l, h int) {
		axpyChunk(a, w.x[l:h], w.y[l:h], out[l:h])
	})
	if err != nil {
		return 0, err
	}
	return out[0] + out[n/2] + out[n-1], nil
}

func (s *Server) matvec(ctx context.Context, n int) (float64, error) {
	w := s.work
	outp := w.fbufs.Get().(*[]float64)
	defer w.fbufs.Put(outp)
	out := *outp
	err := s.exec.ParallelForCtx(ctx, 0, n, s.cfg.Grain, func(l, h int) {
		for r := l; r < h; r++ {
			out[r] = dotRow(w.mat[r*w.matN:r*w.matN+n], w.x)
		}
	})
	if err != nil {
		return 0, err
	}
	return out[0] + out[n/2] + out[n-1], nil
}

func (s *Server) pathfinder(ctx context.Context, rows int) (float64, error) {
	w := s.work
	curp := w.ibufs.Get().(*[]int32)
	nextp := w.ibufs.Get().(*[]int32)
	defer w.ibufs.Put(curp)
	defer w.ibufs.Put(nextp)
	final, err := pathfinder.ParallelCtx(ctx, s.exec, w.grid.View(rows), s.cfg.Grain, *curp, *nextp)
	if err != nil {
		return 0, err
	}
	return float64(pathfinder.MinCost(final)), nil
}
