package threading_test

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"threading"
	"threading/internal/offload"
)

// These integration tests exercise cross-cutting scenarios through
// the public facade: OpenMP-style dependence graphs, TBB-style
// pipelines, offloading with verification against host execution, and
// future combinator graphs — the extension features of the paper's
// Table I beyond plain loop/task parallelism.

func TestIntegrationTaskDependencyStencil(t *testing.T) {
	// A 3-point stencil expressed as a task dependence graph: each
	// cell update depends on its own previous value (out) and reads
	// its neighbors (in). The team must discover the wavefront order.
	team := threading.NewTeam(4)
	defer team.Close()

	const cells, steps = 32, 10
	cur := make([]float64, cells)
	for i := range cur {
		cur[i] = float64(i)
	}
	// Sequential reference with double buffering.
	want := make([]float64, cells)
	copy(want, cur)
	tmp := make([]float64, cells)
	for s := 0; s < steps; s++ {
		for i := range want {
			l, r := i, i
			if i > 0 {
				l = i - 1
			}
			if i < cells-1 {
				r = i + 1
			}
			tmp[i] = (want[l] + want[i] + want[r]) / 3
		}
		want, tmp = tmp, want
	}

	// Task-graph version: generations of per-cell tasks; each writes
	// a versioned slot and reads the neighbors' previous slots.
	vals := make([][]float64, steps+1)
	vals[0] = make([]float64, cells)
	copy(vals[0], cur)
	for s := 1; s <= steps; s++ {
		vals[s] = make([]float64, cells)
	}
	team.Parallel(func(tc *threading.TeamCtx) {
		tc.Master(func() {
			for s := 1; s <= steps; s++ {
				for i := 0; i < cells; i++ {
					s, i := s, i
					in := []any{&vals[s-1][i]}
					if i > 0 {
						in = append(in, &vals[s-1][i-1])
					}
					if i < cells-1 {
						in = append(in, &vals[s-1][i+1])
					}
					tc.TaskDepend(threading.Deps{In: in, Out: []any{&vals[s][i]}},
						func(*threading.TeamCtx) {
							l, r := i, i
							if i > 0 {
								l = i - 1
							}
							if i < cells-1 {
								r = i + 1
							}
							vals[s][i] = (vals[s-1][l] + vals[s-1][i] + vals[s-1][r]) / 3
						})
				}
			}
			tc.Taskwait()
		})
	})
	for i := range want {
		if math.Abs(vals[steps][i]-want[i]) > 1e-12 {
			t.Fatalf("cell %d: %g, want %g", i, vals[steps][i], want[i])
		}
	}
}

func TestIntegrationPipelineOverModels(t *testing.T) {
	// A pipeline whose parallel stage internally uses a threading
	// model for data parallelism — composing the paper's parallelism
	// patterns.
	m, err := threading.NewModel(threading.CilkFor, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	p := threading.NewPipeline().
		AddParallel("scale", func(v any) (any, error) {
			vec := v.([]float64)
			err := m.ParallelForCtx(context.Background(), len(vec), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					vec[i] *= 2
				}
			})
			return vec, err
		}).
		AddSerial("sum", func(v any) (any, error) {
			vec := v.([]float64)
			s := 0.0
			for _, x := range vec {
				s += x
			}
			return s, nil
		})

	const frames = 16
	items := make([][]float64, frames)
	for k := range items {
		items[k] = make([]float64, 100)
		for i := range items[k] {
			items[k][i] = float64(k)
		}
	}
	idx := 0
	var sums []float64
	n, err := p.Run(2, 4, func() (any, bool) {
		if idx >= frames {
			return nil, false
		}
		v := items[idx]
		idx++
		return v, true
	}, func(v any) { sums = append(sums, v.(float64)) })
	if err != nil || n != frames {
		t.Fatalf("Run = (%d, %v)", n, err)
	}
	for k, s := range sums {
		if s != float64(k)*2*100 {
			t.Fatalf("frame %d sum = %g, want %g (order preserved?)", k, s, float64(k)*2*100)
		}
	}
}

func TestIntegrationOffloadMatchesHostModel(t *testing.T) {
	// The same matvec computed by a host threading model and by the
	// simulated device must agree exactly.
	const n = 128
	a := make([]float64, n*n)
	x := make([]float64, n)
	for i := range a {
		a[i] = float64(i%13) / 13
	}
	for i := range x {
		x[i] = float64(i%7) / 7
	}

	m, err := threading.NewModel(threading.OMPFor, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	host := make([]float64, n)
	if err := m.ParallelForCtx(context.Background(), n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var s float64
			for j := 0; j < n; j++ {
				s += a[i*n+j] * x[j]
			}
			host[i] = s
		}
	}); err != nil {
		t.Fatal(err)
	}

	dev := threading.NewDevice("gpu0", threading.WithUnits(2))
	devOut := make([]float64, n)
	dev.Target([]threading.Mapping{
		{Host: a, Dir: threading.MapTo},
		{Host: x, Dir: threading.MapTo},
		{Host: devOut, Dir: threading.MapFrom},
	}, func(bufs []*offload.Buffer) {
		dev.Launch(n, func(i int, v [][]float64) {
			var s float64
			row := v[0][i*n : (i+1)*n]
			for j, aij := range row {
				s += aij * v[1][j]
			}
			v[2][i] = s
		}, bufs[0], bufs[1], bufs[2])
	})
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range host {
		if math.Abs(devOut[i]-host[i]) > 1e-12 {
			t.Fatalf("row %d: device %g, host %g", i, devOut[i], host[i])
		}
	}
}

func TestIntegrationFutureGraphFanInFanOut(t *testing.T) {
	// Map-reduce over futures: fan out squares, WhenAll join, Then
	// continuation, WhenAny race against a slow path.
	const n = 20
	parts := make([]*threading.Future[int], n)
	for i := 0; i < n; i++ {
		i := i
		parts[i] = threading.Async(threading.LaunchAsync, func() (int, error) {
			return i * i, nil
		})
	}
	total := threading.Then(threading.WhenAll(parts...), func(vs []int) (int, error) {
		s := 0
		for _, v := range vs {
			s += v
		}
		return s, nil
	})
	slow := threading.Async(threading.LaunchDeferred, func() (int, error) {
		return 0, errors.New("never forced")
	})
	res, err := threading.WhenAny(total, slow).Get()
	if err != nil {
		t.Fatal(err)
	}
	want := (n - 1) * n * (2*n - 1) / 6
	if res.Index != 0 || res.Value != want {
		t.Fatalf("res = %+v, want index 0 value %d", res, want)
	}
}

func TestIntegrationSectionsAndSchedules(t *testing.T) {
	team := threading.NewTeam(3)
	defer team.Close()
	var a, b, c atomic.Int64
	const n = 9000
	hits := make([]atomic.Int32, n)
	team.Parallel(func(tc *threading.TeamCtx) {
		tc.Sections(
			func() { a.Add(1) },
			func() { b.Add(1) },
			func() { c.Add(1) },
		)
		tc.For(threading.Guided(8), 0, n, func(i int) { hits[i].Add(1) })
	})
	if a.Load() != 1 || b.Load() != 1 || c.Load() != 1 {
		t.Fatalf("sections ran %d/%d/%d times", a.Load(), b.Load(), c.Load())
	}
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("iteration %d ran %d times", i, hits[i].Load())
		}
	}
}
