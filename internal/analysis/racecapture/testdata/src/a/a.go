package a

import (
	"context"

	"threading/internal/models"
	"threading/internal/worksteal"
)

// The acceptance case: an unsynchronized captured-scalar
// accumulation inside a ParallelForCtx body.
func scalarAccum(p *worksteal.Pool, xs []float64) float64 {
	sum := 0.0
	_ = p.ParallelForCtx(context.Background(), 0, len(xs), 0, func(l, h int) {
		for i := l; i < h; i++ {
			sum += xs[i] // want `unsynchronized write to captured variable "sum" inside a Pool.ParallelForCtx body`
		}
	})
	return sum
}

// IncDec on a captured counter is the same race.
func counter(p *worksteal.Pool) int {
	n := 0
	_ = p.ParallelForCtx(context.Background(), 0, 128, 0, func(l, h int) {
		for i := l; i < h; i++ {
			n++ // want `unsynchronized write to captured variable "n"`
		}
	})
	return n
}

// A write through an index unrelated to the loop range can collide.
func wrongIndex(p *worksteal.Pool, out []int, k int) {
	_ = p.ParallelForCtx(context.Background(), 0, len(out), 0, func(l, h int) {
		for i := l; i < h; i++ {
			out[k] = i // want `write to captured "out" indexed by "k", which is not derived from the loop variable`
		}
	})
}

// Captured maps race on internal state even at distinct keys.
func mapWrite(p *worksteal.Pool, m map[int]int) {
	_ = p.ParallelForCtx(context.Background(), 0, 64, 0, func(l, h int) {
		for i := l; i < h; i++ {
			m[i] = i * i // want `write to captured map "m" inside a Pool.ParallelForCtx body`
		}
	})
}

// Writes to a captured struct field are as shared as a bare scalar.
type stats struct{ total float64 }

func fieldWrite(p *worksteal.Pool, s *stats, xs []float64) {
	_ = p.ParallelForCtx(context.Background(), 0, len(xs), 0, func(l, h int) {
		for i := l; i < h; i++ {
			s.total += xs[i] // want `unsynchronized write to captured variable "s"`
		}
	})
}

// ForDAC bodies are loop bodies too.
func dacAccum(p *worksteal.Pool, xs []int) int {
	acc := 0
	p.Run(func(c *worksteal.Ctx) {
		c.ForDAC(0, len(xs), 0, func(cc *worksteal.Ctx, l, h int) {
			for i := l; i < h; i++ {
				acc += xs[i] // want `unsynchronized write to captured variable "acc" inside a Ctx.ForDAC body`
			}
		})
	})
	return acc
}

// The shape of every kernel in this module: the loop call is an
// argument of models.Must, not a statement of its own. The body is
// still a Model.ParallelForCtx body.
func kernelShaped(m models.Model, xs []float64) float64 {
	sum := 0.0
	models.Must(m.ParallelForCtx(context.Background(), len(xs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += xs[i] // want `unsynchronized write to captured variable "sum" inside a Model.ParallelForCtx body`
		}
	}))
	return sum
}
