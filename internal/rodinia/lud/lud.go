// Package lud ports the Rodinia LU-decomposition benchmark: in-place
// factorization of a dense matrix into lower and upper triangular
// factors without pivoting. Each outer step k eliminates one column:
// a parallel loop scales the multipliers, a second parallel loop
// updates the trailing submatrix — two parallel loops with a
// dependency on the outer loop, whose shrinking triangular iteration
// space gives threads equal task counts but unequal work, exactly the
// imbalance the paper discusses for this application.
package lud

import (
	"context"
	"math"

	"threading/internal/models"
)

func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// GenerateMatrix returns a deterministic, diagonally dominant n x n
// row-major matrix, so factorization without pivoting is stable —
// the same trick the Rodinia input generator uses.
func GenerateMatrix(n int, seed uint64) []float64 {
	a := make([]float64, n*n)
	st := seed
	for i := 0; i < n; i++ {
		var rowSum float64
		for j := 0; j < n; j++ {
			v := float64(splitmix64(&st)>>11)/float64(1<<53) - 0.5
			a[i*n+j] = v
			rowSum += math.Abs(v)
		}
		a[i*n+i] = rowSum + 1 // strict diagonal dominance
	}
	return a
}

// Seq factorizes a in place sequentially: afterwards the strict lower
// triangle holds L (unit diagonal implied) and the upper triangle
// holds U.
func Seq(a []float64, n int) {
	for k := 0; k < n; k++ {
		pivot := a[k*n+k]
		for i := k + 1; i < n; i++ {
			a[i*n+k] /= pivot
		}
		for i := k + 1; i < n; i++ {
			lik := a[i*n+k]
			rowK := a[k*n : k*n+n]
			rowI := a[i*n : i*n+n]
			for j := k + 1; j < n; j++ {
				rowI[j] -= lik * rowK[j]
			}
		}
	}
}

// Parallel factorizes a in place under model m. Both per-step loops
// run over the shrinking range [k+1, n); the model's join provides
// the dependency between the multiplier and update phases and between
// outer steps.
func Parallel(m models.Model, a []float64, n int) {
	for k := 0; k < n; k++ {
		pivot := a[k*n+k]
		rows := n - k - 1
		if rows <= 0 {
			break
		}
		models.Must(m.ParallelForCtx(context.Background(), rows, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				i := k + 1 + r
				a[i*n+k] /= pivot
			}
		}))
		models.Must(m.ParallelForCtx(context.Background(), rows, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				i := k + 1 + r
				lik := a[i*n+k]
				rowK := a[k*n : k*n+n]
				rowI := a[i*n : i*n+n]
				for j := k + 1; j < n; j++ {
					rowI[j] -= lik * rowK[j]
				}
			}
		}))
	}
}

// Reconstruct multiplies the packed L and U factors back into a dense
// matrix, for verification: out[i][j] = sum_k L[i][k]*U[k][j].
func Reconstruct(lu []float64, n int) []float64 {
	out := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			kmax := min(i, j)
			for k := 0; k < kmax; k++ {
				s += lu[i*n+k] * lu[k*n+j]
			}
			if i <= j {
				s += lu[i*n+j] // L[i][i] = 1 times U[i][j]
			} else {
				s += lu[i*n+j] * lu[j*n+j] // L[i][j] * U[j][j]
			}
			out[i*n+j] = s
		}
	}
	return out
}

// MaxError returns the largest absolute elementwise difference
// between a and b.
func MaxError(a, b []float64) float64 {
	var worst float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}
