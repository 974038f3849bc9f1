// Package kernels implements the five micro-kernels of the reproduced
// paper's Section IV-A — Axpy, Sum, Matvec, Matmul and Fibonacci —
// each as a sequential reference plus a version parameterized by a
// threading model. The parallel versions perform identical arithmetic
// under every model, so timing differences isolate the runtimes.
package kernels

import (
	"context"

	"threading/internal/models"
)

// splitmix64 advances and mixes the generator state; used for
// deterministic workload generation without math/rand.
func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// RandomVector returns a deterministic pseudo-random vector with
// entries in [0, 1).
func RandomVector(n int, seed uint64) []float64 {
	v := make([]float64, n)
	st := seed
	for i := range v {
		v[i] = float64(splitmix64(&st)>>11) / float64(1<<53)
	}
	return v
}

// RandomMatrix returns a deterministic pseudo-random n x n row-major
// matrix with entries in [0, 1).
func RandomMatrix(n int, seed uint64) []float64 {
	return RandomVector(n*n, seed)
}

// AxpySeq computes y[i] += a*x[i] sequentially.
func AxpySeq(a float64, x, y []float64) {
	for i := range x {
		y[i] += a * x[i]
	}
}

// Axpy computes y[i] += a*x[i] under model m. x and y must have equal
// length.
func Axpy(m models.Model, a float64, x, y []float64) {
	models.Must(m.ParallelForCtx(context.Background(), len(x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] += a * x[i]
		}
	}))
}

// SumSeq computes the sum of a*x[i] sequentially.
func SumSeq(a float64, x []float64) float64 {
	var s float64
	for _, v := range x {
		s += a * v
	}
	return s
}

// Sum computes the sum of a*x[i] under model m — the paper's
// work-sharing + reduction kernel.
func Sum(m models.Model, a float64, x []float64) float64 {
	sum, err := m.ParallelReduceCtx(context.Background(), len(x), 0,
		func(lo, hi int, acc float64) float64 {
			for i := lo; i < hi; i++ {
				acc += a * x[i]
			}
			return acc
		},
		func(p, q float64) float64 { return p + q })
	models.Must(err)
	return sum
}

// MatvecSeq computes y = A*x for a row-major n x n matrix.
func MatvecSeq(a, x, y []float64, n int) {
	for i := 0; i < n; i++ {
		row := a[i*n : (i+1)*n]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
}

// Matvec computes y = A*x under model m, parallel over rows.
func Matvec(m models.Model, a, x, y []float64, n int) {
	models.Must(m.ParallelForCtx(context.Background(), n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := a[i*n : (i+1)*n]
			var s float64
			for j, v := range row {
				s += v * x[j]
			}
			y[i] = s
		}
	}))
}

// MatmulSeq computes c = a*b for row-major n x n matrices using the
// cache-friendly ikj loop order.
func MatmulSeq(a, b, c []float64, n int) {
	for i := 0; i < n; i++ {
		ci := c[i*n : (i+1)*n]
		for j := range ci {
			ci[j] = 0
		}
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			bk := b[k*n : (k+1)*n]
			for j, v := range bk {
				ci[j] += aik * v
			}
		}
	}
}

// Matmul computes c = a*b under model m, parallel over rows of c,
// with the same ikj inner kernel as MatmulSeq.
func Matmul(m models.Model, a, b, c []float64, n int) {
	models.Must(m.ParallelForCtx(context.Background(), n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ci := c[i*n : (i+1)*n]
			for j := range ci {
				ci[j] = 0
			}
			for k := 0; k < n; k++ {
				aik := a[i*n+k]
				bk := b[k*n : (k+1)*n]
				for j, v := range bk {
					ci[j] += aik * v
				}
			}
		}
	}))
}

// FibSeq computes the nth Fibonacci number by naive recursion — the
// sequential baseline with the same O(fib(n)) call tree the parallel
// versions traverse.
func FibSeq(n int) uint64 {
	if n < 2 {
		return uint64(n)
	}
	return FibSeq(n-1) + FibSeq(n-2)
}

// FibTask computes fib(n) under model m using one spawned task per
// recursive branch, the paper's task-parallelism stress test. Below
// cutoff the recursion continues sequentially; cutoff < 2 disables
// the cut-off entirely (pure spawning — which, for the thread-backed
// models, reproduces the paper's observation that uncut std::thread
// recursion is unusable: every branch becomes a live thread).
// m must support tasks.
func FibTask(m models.Model, n, cutoff int) uint64 {
	var result uint64
	models.Must(m.TaskRunCtx(context.Background(), func(s models.TaskScope) {
		fibScope(s, n, cutoff, &result)
	}))
	return result
}

func fibScope(s models.TaskScope, n, cutoff int, out *uint64) {
	if n < 2 {
		*out = uint64(n)
		return
	}
	if n <= cutoff {
		*out = FibSeq(n)
		return
	}
	var a, b uint64
	s.Spawn(func(cs models.TaskScope) { fibScope(cs, n-1, cutoff, &a) })
	fibScope(s, n-2, cutoff, &b)
	s.Sync()
	*out = a + b
}
