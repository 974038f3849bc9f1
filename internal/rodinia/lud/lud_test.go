package lud

import (
	"math"
	"testing"

	"threading/internal/models"
)

func TestGenerateDiagonallyDominant(t *testing.T) {
	const n = 50
	a := GenerateMatrix(n, 11)
	for i := 0; i < n; i++ {
		var off float64
		for j := 0; j < n; j++ {
			if j != i {
				off += math.Abs(a[i*n+j])
			}
		}
		if a[i*n+i] <= off {
			t.Fatalf("row %d not diagonally dominant: diag %g, off %g", i, a[i*n+i], off)
		}
	}
}

func TestSeqFactorizationReconstructs(t *testing.T) {
	const n = 60
	orig := GenerateMatrix(n, 21)
	a := make([]float64, len(orig))
	copy(a, orig)
	Seq(a, n)
	back := reconstruct(a, n)
	if err := MaxError(back, orig); err > 1e-9 {
		t.Fatalf("reconstruction error %g", err)
	}
}

func TestSeqKnownSmall(t *testing.T) {
	// A = [[4,3],[6,3]] -> L = [[1,0],[1.5,1]], U = [[4,3],[0,-1.5]]
	a := []float64{4, 3, 6, 3}
	Seq(a, 2)
	want := []float64{4, 3, 1.5, -1.5}
	for i := range a {
		if math.Abs(a[i]-want[i]) > 1e-12 {
			t.Fatalf("lu = %v, want %v", a, want)
		}
	}
}

func TestParallelMatchesSeq(t *testing.T) {
	const n = 96
	orig := GenerateMatrix(n, 33)
	want := make([]float64, len(orig))
	copy(want, orig)
	Seq(want, n)
	for _, name := range models.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			m := models.MustNew(name, 4)
			defer m.Close()
			a := make([]float64, len(orig))
			copy(a, orig)
			Parallel(m, a, n)
			if err := MaxError(a, want); err > 1e-9 {
				t.Fatalf("max deviation from sequential factorization: %g", err)
			}
		})
	}
}

func TestParallelReconstructs(t *testing.T) {
	const n = 80
	orig := GenerateMatrix(n, 44)
	a := make([]float64, len(orig))
	copy(a, orig)
	m := models.MustNew(models.CilkSpawn, 4)
	defer m.Close()
	Parallel(m, a, n)
	if err := MaxError(reconstruct(a, n), orig); err > 1e-9 {
		t.Fatalf("reconstruction error %g", err)
	}
}

func TestTinyMatrices(t *testing.T) {
	m := models.MustNew(models.OMPFor, 4)
	defer m.Close()
	for _, n := range []int{1, 2, 3} {
		orig := GenerateMatrix(n, uint64(n))
		a := make([]float64, len(orig))
		copy(a, orig)
		Parallel(m, a, n)
		if err := MaxError(reconstruct(a, n), orig); err > 1e-12 {
			t.Fatalf("n=%d: reconstruction error %g", n, err)
		}
	}
}

func TestMaxError(t *testing.T) {
	if MaxError([]float64{1, 2, 3}, []float64{1, 5, 3}) != 3 {
		t.Fatal("MaxError wrong")
	}
	if MaxError(nil, nil) != 0 {
		t.Fatal("MaxError of empty should be 0")
	}
}

// reconstruct multiplies the packed L and U factors back into a dense
// matrix, for verification: out[i][j] = sum_k L[i][k]*U[k][j].
func reconstruct(lu []float64, n int) []float64 {
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
