// Package lavamd ports the Rodinia LavaMD benchmark: particle
// potential and relocation computation in a 3D space partitioned into
// a cubic grid of boxes. For every box, forces on its particles are
// accumulated from the particles of the box itself and its (up to 26)
// neighbor boxes, under a cut-off potential. Work per box is uniform
// — the paper cites LavaMD among the applications where all models
// perform closely.
package lavamd

import (
	"context"
	"math"

	"threading/internal/models"
)

// ParticlesPerBox matches the Rodinia NUMBER_PAR_PER_BOX constant.
const ParticlesPerBox = 100

// alpha is the Rodinia potential parameter (a2 = 2*alpha^2 in the
// kernel).
const alpha = 0.5

// Vec4 is a particle record: position (X, Y, Z) and charge V, matching
// Rodinia's FOUR_VECTOR.
type Vec4 struct {
	V, X, Y, Z float64
}

// Space is the boxed particle system.
type Space struct {
	BoxesPerDim int
	// Neighbors[b] lists the box indices adjacent to box b,
	// including b itself (Rodinia iterates self + neighbors).
	Neighbors [][]int32
	// Positions holds ParticlesPerBox records per box.
	Positions []Vec4
	// Charges holds one charge value per particle (Rodinia's qv).
	Charges []float64
}

// NumBoxes returns the total box count.
func (s *Space) NumBoxes() int { return s.BoxesPerDim * s.BoxesPerDim * s.BoxesPerDim }

// NumParticles returns the total particle count.
func (s *Space) NumParticles() int { return s.NumBoxes() * ParticlesPerBox }

func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func rand01(st *uint64) float64 {
	return float64(splitmix64(st)>>11) / float64(1<<53)
}

// Generate builds a deterministic boxed particle system with
// boxesPerDim^3 boxes, replicating the Rodinia initialization
// (uniform random positions and charges in (0, 1]).
func Generate(boxesPerDim int, seed uint64) *Space {
	if boxesPerDim < 1 {
		panic("lavamd: need at least one box per dimension")
	}
	nb := boxesPerDim * boxesPerDim * boxesPerDim
	s := &Space{
		BoxesPerDim: boxesPerDim,
		Neighbors:   make([][]int32, nb),
		Positions:   make([]Vec4, nb*ParticlesPerBox),
		Charges:     make([]float64, nb*ParticlesPerBox),
	}
	d := boxesPerDim
	idx := func(x, y, z int) int32 { return int32((z*d+y)*d + x) }
	for z := 0; z < d; z++ {
		for y := 0; y < d; y++ {
			for x := 0; x < d; x++ {
				b := idx(x, y, z)
				nbrs := []int32{b} // home box first, as in Rodinia
				for dz := -1; dz <= 1; dz++ {
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							if dx == 0 && dy == 0 && dz == 0 {
								continue
							}
							nx, ny, nz := x+dx, y+dy, z+dz
							if nx < 0 || nx >= d || ny < 0 || ny >= d || nz < 0 || nz >= d {
								continue
							}
							nbrs = append(nbrs, idx(nx, ny, nz))
						}
					}
				}
				s.Neighbors[b] = nbrs
			}
		}
	}
	st := seed
	for i := range s.Positions {
		s.Positions[i] = Vec4{
			V: rand01(&st) + 0.1,
			X: rand01(&st) + 0.1,
			Y: rand01(&st) + 0.1,
			Z: rand01(&st) + 0.1,
		}
	}
	for i := range s.Charges {
		s.Charges[i] = rand01(&st) + 0.1
	}
	return s
}

// forcesForBox accumulates the Rodinia kernel for one home box into
// out (indexed like Positions).
func forcesForBox(s *Space, out []Vec4, b int) {
	a2 := 2 * alpha * alpha
	home := s.Positions[b*ParticlesPerBox : (b+1)*ParticlesPerBox]
	acc := out[b*ParticlesPerBox : (b+1)*ParticlesPerBox]
	for _, nb := range s.Neighbors[b] {
		remote := s.Positions[nb*ParticlesPerBox : (nb+1)*ParticlesPerBox]
		charges := s.Charges[nb*ParticlesPerBox : (nb+1)*ParticlesPerBox]
		for i := range home {
			pi := &home[i]
			ai := &acc[i]
			for j := range remote {
				pj := &remote[j]
				// r2 = pi.v + pj.v - dot(pi, pj): Rodinia's unusual
				// squared-distance surrogate.
				r2 := pi.V + pj.V - (pi.X*pj.X + pi.Y*pj.Y + pi.Z*pj.Z)
				u2 := a2 * r2
				vij := math.Exp(-u2)
				fs := 2 * vij
				dx := pi.X - pj.X
				dy := pi.Y - pj.Y
				dz := pi.Z - pj.Z
				fxij := fs * dx
				fyij := fs * dy
				fzij := fs * dz
				q := charges[j]
				ai.V += q * vij
				ai.X += q * fxij
				ai.Y += q * fyij
				ai.Z += q * fzij
			}
		}
	}
}

// Seq computes the potential/force accumulation for every box
// sequentially and returns the per-particle accumulators.
func Seq(s *Space) []Vec4 {
	out := make([]Vec4, len(s.Positions))
	for b := 0; b < s.NumBoxes(); b++ {
		forcesForBox(s, out, b)
	}
	return out
}

// Parallel computes the same accumulation under model m, parallel
// over home boxes (the Rodinia OpenMP parallelization).
func Parallel(m models.Model, s *Space) []Vec4 {
	out := make([]Vec4, len(s.Positions))
	models.Must(m.ParallelForCtx(context.Background(), s.NumBoxes(), func(lo, hi int) {
		for b := lo; b < hi; b++ {
			forcesForBox(s, out, b)
		}
	}))
	return out
}
