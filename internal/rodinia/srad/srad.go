// Package srad ports the Rodinia SRAD benchmark (Speckle Reducing
// Anisotropic Diffusion), an image de-speckling method used on
// ultrasonic and radar imagery. Each iteration is (1) a reduction
// over the region of interest to estimate the noise statistic, (2) a
// stencil loop computing per-pixel diffusion coefficients, and (3) a
// second stencil loop applying the divergence update — dependent
// compute-intensive parallel phases, which is why the paper groups
// SRAD with LavaMD among the regular applications where the models
// perform closely.
package srad

import (
	"context"
	"math"

	"threading/internal/models"
)

// Image is a rows x cols grayscale image in row-major order.
type Image struct {
	Rows, Cols int
	Pix        []float64
}

// NewImage allocates a zero image.
func NewImage(rows, cols int) *Image {
	if rows < 2 || cols < 2 {
		panic("srad: image must be at least 2x2")
	}
	return &Image{Rows: rows, Cols: cols, Pix: make([]float64, rows*cols)}
}

// Clone returns a deep copy of the image.
func (im *Image) Clone() *Image {
	out := NewImage(im.Rows, im.Cols)
	copy(out.Pix, im.Pix)
	return out
}

func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// GenerateImage produces the Rodinia input: random pixel values in
// [0, 255] passed through exp(v/255), mirroring the benchmark's
// pre-processing of its random input matrix.
func GenerateImage(rows, cols int, seed uint64) *Image {
	im := NewImage(rows, cols)
	st := seed
	for i := range im.Pix {
		v := 255 * float64(splitmix64(&st)>>11) / float64(1<<53)
		im.Pix[i] = math.Exp(v / 255)
	}
	return im
}

// iterBuffers holds the per-iteration scratch arrays (directional
// derivatives and diffusion coefficient), allocated once.
type iterBuffers struct {
	dN, dS, dW, dE, c []float64
}

func newBuffers(n int) *iterBuffers {
	return &iterBuffers{
		dN: make([]float64, n),
		dS: make([]float64, n),
		dW: make([]float64, n),
		dE: make([]float64, n),
		c:  make([]float64, n),
	}
}

// coeffRow computes derivatives and the diffusion coefficient for one
// row (Rodinia's first compute loop). q0sqr is the noise estimate of
// the current iteration.
func coeffRow(im *Image, b *iterBuffers, q0sqr float64, r int) {
	rows, cols := im.Rows, im.Cols
	J := im.Pix
	rn := r - 1
	if rn < 0 {
		rn = 0
	}
	rs := r + 1
	if rs > rows-1 {
		rs = rows - 1
	}
	for c := 0; c < cols; c++ {
		cw := c - 1
		if cw < 0 {
			cw = 0
		}
		ce := c + 1
		if ce > cols-1 {
			ce = cols - 1
		}
		k := r*cols + c
		jc := J[k]
		b.dN[k] = J[rn*cols+c] - jc
		b.dS[k] = J[rs*cols+c] - jc
		b.dW[k] = J[r*cols+cw] - jc
		b.dE[k] = J[r*cols+ce] - jc

		g2 := (b.dN[k]*b.dN[k] + b.dS[k]*b.dS[k] +
			b.dW[k]*b.dW[k] + b.dE[k]*b.dE[k]) / (jc * jc)
		l := (b.dN[k] + b.dS[k] + b.dW[k] + b.dE[k]) / jc
		num := 0.5*g2 - (1.0/16.0)*l*l
		den := 1 + 0.25*l
		qsqr := num / (den * den)
		den = (qsqr - q0sqr) / (q0sqr * (1 + q0sqr))
		cv := 1.0 / (1.0 + den)
		if cv < 0 {
			cv = 0
		} else if cv > 1 {
			cv = 1
		}
		b.c[k] = cv
	}
}

// updateRow applies the divergence update for one row (Rodinia's
// second compute loop).
func updateRow(im *Image, b *iterBuffers, lambda float64, r int) {
	rows, cols := im.Rows, im.Cols
	J := im.Pix
	rs := r + 1
	if rs > rows-1 {
		rs = rows - 1
	}
	for c := 0; c < cols; c++ {
		ce := c + 1
		if ce > cols-1 {
			ce = cols - 1
		}
		k := r*cols + c
		cN := b.c[k]
		cS := b.c[rs*cols+c]
		cW := b.c[k]
		cE := b.c[r*cols+ce]
		d := cN*b.dN[k] + cS*b.dS[k] + cW*b.dW[k] + cE*b.dE[k]
		J[k] += 0.25 * lambda * d
	}
}

// roiStats returns mean and variance-based q0sqr over the whole image
// (the benchmark uses a rectangular ROI; we use the full frame, as
// the Rodinia OpenMP version does with its default 0..rows ROI).
func roiStats(im *Image) float64 {
	var sum, sum2 float64
	for _, v := range im.Pix {
		sum += v
		sum2 += v * v
	}
	n := float64(len(im.Pix))
	mean := sum / n
	variance := (sum2 / n) - mean*mean
	return variance / (mean * mean)
}

// Seq runs iters diffusion iterations sequentially on a copy of im
// and returns the result.
func Seq(im *Image, lambda float64, iters int) *Image {
	out := im.Clone()
	b := newBuffers(len(out.Pix))
	for it := 0; it < iters; it++ {
		q0sqr := roiStats(out)
		for r := 0; r < out.Rows; r++ {
			coeffRow(out, b, q0sqr, r)
		}
		for r := 0; r < out.Rows; r++ {
			updateRow(out, b, lambda, r)
		}
	}
	return out
}

// Parallel runs the same iterations under model m: the ROI statistic
// is a ParallelReduce, the two stencil phases are ParallelFor over
// rows, with the model's joins enforcing the phase dependencies.
func Parallel(m models.Model, im *Image, lambda float64, iters int) *Image {
	out := im.Clone()
	b := newBuffers(len(out.Pix))
	for it := 0; it < iters; it++ {
		n := float64(len(out.Pix))
		sum, err := m.ParallelReduceCtx(context.Background(), len(out.Pix), 0,
			func(lo, hi int, acc float64) float64 {
				for i := lo; i < hi; i++ {
					acc += out.Pix[i]
				}
				return acc
			}, func(a, c float64) float64 { return a + c })
		models.Must(err)
		sum2, err := m.ParallelReduceCtx(context.Background(), len(out.Pix), 0,
			func(lo, hi int, acc float64) float64 {
				for i := lo; i < hi; i++ {
					acc += out.Pix[i] * out.Pix[i]
				}
				return acc
			}, func(a, c float64) float64 { return a + c })
		models.Must(err)
		mean := sum / n
		variance := (sum2 / n) - mean*mean
		q0sqr := variance / (mean * mean)

		models.Must(m.ParallelForCtx(context.Background(), out.Rows, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				coeffRow(out, b, q0sqr, r)
			}
		}))
		models.Must(m.ParallelForCtx(context.Background(), out.Rows, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				updateRow(out, b, lambda, r)
			}
		}))
	}
	return out
}
