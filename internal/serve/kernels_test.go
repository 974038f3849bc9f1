package serve

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"testing"

	"threading/internal/models"
)

// The naive loops below are the formulas the request handlers ran
// before the chunk bodies moved to kernels.go: one accumulator, one
// element per iteration. They are the independent reference the chunk
// functions are checked against.

func naiveSum(xs []float64) float64 {
	var acc float64
	for _, v := range xs {
		acc += v
	}
	return acc
}

func naiveAxpy(a float64, xs, ys, out []float64) {
	for i := range out {
		out[i] = a*xs[i] + ys[i]
	}
}

func naiveDot(row, xs []float64) float64 {
	var acc float64
	for j, v := range row {
		acc += v * xs[j]
	}
	return acc
}

// randVec returns n values in [0, 1), drawn as the workload draws them.
func randVec(n int, seed uint64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(splitmix64(&seed)%1000) / 1000
	}
	return xs
}

// closeTo reports whether got is within relative tol of want.
func closeTo(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)
}

// TestChunkKernelsMatchNaive checks every chunk function against its
// naive loop on every length short enough to end inside the four-wide
// step (0-9), around a multiple of the step (31-33) and long (1 000),
// each starting at every residue mod 4 of the backing array, as the
// chunks of a loop with an odd grain do. The sums may be reassociated
// (relative 1e-12); axpy evaluates the same per-element expression and
// must be bit-identical.
func TestChunkKernelsMatchNaive(t *testing.T) {
	const a = 2.5
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 1000}
	x, y := randVec(1010, 1), randVec(1010, 2)
	for lo := 0; lo < 4; lo++ {
		for _, n := range lengths {
			xs, ys := x[lo:lo+n], y[lo:lo+n]
			if got, want := sumChunk(xs), naiveSum(xs); !closeTo(got, want, 1e-12) {
				t.Errorf("sumChunk(x[%d:%d]) = %v, want %v", lo, lo+n, got, want)
			}
			// dotRow reads only xs[:len(row)]; pass a longer xs too.
			for _, xsLen := range []int{n, n + 5} {
				if got, want := dotRow(ys, x[lo:lo+xsLen]), naiveDot(ys, xs); !closeTo(got, want, 1e-12) {
					t.Errorf("dotRow(y[%d:%d], len %d) = %v, want %v", lo, lo+n, xsLen, got, want)
				}
			}
			got, want := make([]float64, n), make([]float64, n)
			axpyChunk(a, x[lo:], y[lo:], got)
			naiveAxpy(a, xs, ys, want)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Errorf("axpyChunk(x[%d:%d])[%d] = %v, want %v", lo, lo+n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestVectorKernelsMatchNaiveThroughServer runs sum, axpy and matvec
// through a real server and recomputes each checksum naively over the
// server's own inputs. The work sizes are not multiples of 4 (and give
// a matrix side of 31 and 64), grain 7 puts chunk boundaries at every
// residue mod 4, and ?n= covers extents below, around and just under
// the full size.
func TestVectorKernelsMatchNaiveThroughServer(t *testing.T) {
	const a = 2.5 // the axpy handler's constant
	for _, name := range []string{models.OMPFor, models.CilkFor} {
		for _, size := range []int{1000, 4099} {
			for _, grain := range []int{0, 7} {
				s := newTestServer(t, Config{Model: name, Threads: 2, WorkSize: size, Grain: grain})
				w := s.work
				run := func(kernel string, n int) float64 {
					t.Helper()
					path := "/run?kernel=" + kernel + "&n=" + strconv.Itoa(n)
					code, body := get(t, s, path)
					if code != http.StatusOK {
						t.Fatalf("%s %s = %d: %s", name, path, code, body)
					}
					return decode[Response](t, body).Result
				}
				checksum := func(out []float64) float64 {
					n := len(out)
					return out[0] + out[n/2] + out[n-1]
				}
				for _, n := range []int{1, 3, 5, w.matN - 1, w.matN, w.n - 1, w.n} {
					where := fmt.Sprintf("%s WorkSize=%d grain=%d n=%d", name, size, grain, n)
					if got, want := run("sum", n), naiveSum(w.x[:n]); !closeTo(got, want, 1e-12) {
						t.Errorf("%s: sum = %v, want %v", where, got, want)
					}
					out := make([]float64, n)
					naiveAxpy(a, w.x, w.y, out)
					if got, want := run("axpy", n), checksum(out); got != want {
						t.Errorf("%s: axpy = %v, want %v", where, got, want)
					}
					if n > w.matN {
						continue
					}
					for r := range out {
						out[r] = naiveDot(w.mat[r*w.matN:r*w.matN+n], w.x)
					}
					if got, want := run("matvec", n), checksum(out); !closeTo(got, want, 1e-12) {
						t.Errorf("%s: matvec = %v, want %v", where, got, want)
					}
				}
			}
		}
	}
}

// BenchmarkServeKernels times each chunk function and its naive loop
// over the serve's default benchmark size, 2^17 elements (a 362 x 362
// matvec), and fails on any result that does not match the naive one.
//
//	go test -run=NONE -bench=ServeKernels ./internal/serve/
func BenchmarkServeKernels(b *testing.B) {
	const a = 2.5
	w := newWorkload(1 << 17)
	n, m := w.n, w.matN
	matvec := func(dot func(row, xs []float64) float64) func([]float64) {
		return func(out []float64) {
			for r := range m {
				out[r] = dot(w.mat[r*m:(r+1)*m], w.x)
			}
		}
	}
	for _, k := range []struct {
		name         string
		bytes, outN  int
		tol          float64 // relative; 0 means bit-identical
		chunk, naive func(out []float64)
	}{
		{"sum", 8 * n, 1, 1e-12,
			func(out []float64) { out[0] = sumChunk(w.x) },
			func(out []float64) { out[0] = naiveSum(w.x) }},
		{"axpy", 24 * n, n, 0,
			func(out []float64) { axpyChunk(a, w.x, w.y, out) },
			func(out []float64) { naiveAxpy(a, w.x, w.y, out) }},
		{"matvec", 8 * m * m, m, 1e-12, matvec(dotRow), matvec(naiveDot)},
	} {
		want := make([]float64, k.outN)
		k.naive(want)
		for _, v := range []struct {
			name string
			fn   func([]float64)
		}{{"chunk", k.chunk}, {"naive", k.naive}} {
			b.Run(k.name+"/"+v.name, func(b *testing.B) {
				out := make([]float64, k.outN)
				v.fn(out) // fault in out's pages, so -benchtime=1x times the loop
				b.SetBytes(int64(k.bytes))
				b.ResetTimer()
				for range b.N {
					v.fn(out)
				}
				for i := range want {
					if out[i] != want[i] && !(k.tol > 0 && closeTo(out[i], want[i], k.tol)) {
						b.Fatalf("%s[%d] = %v, want %v", k.name, i, out[i], want[i])
					}
				}
			})
		}
	}
}
