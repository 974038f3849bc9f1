// Package hotspot ports the Rodinia HotSpot benchmark: a transient
// thermal simulation that estimates processor temperature from an
// architectural floorplan and per-cell power dissipation, solving the
// heat differential equations with an explicit finite-difference
// iteration. Each time step is a 5-point stencil over the grid —
// compute-intensive parallel loops with a dependency between steps,
// the structure the paper points to when tasking overtakes
// work-sharing on this application.
package hotspot

import (
	"context"

	"threading/internal/models"
)

// Physical constants from the Rodinia implementation.
const (
	maxPD     = 3.0e6  // maximum power density (W/m^2)
	precision = 0.001  // required precision
	specHeat  = 875000 // capacitance scaling (spec_heat_si * 0.5)
	kSi       = 100    // silicon thermal conductivity
	tChip     = 0.0005 // chip thickness (m)
	chipHt    = 0.016  // chip height (m)
	chipWd    = 0.016  // chip width (m)
	ambTemp   = 80.0   // ambient temperature
)

// Config holds the simulation geometry and derived coefficients.
type Config struct {
	Rows, Cols int
	Rx, Ry, Rz float64
	Cap        float64
	Step       float64
}

// NewConfig derives the Rodinia coefficients for a rows x cols grid.
func NewConfig(rows, cols int) Config {
	if rows < 1 || cols < 1 {
		panic("hotspot: grid must be at least 1x1")
	}
	gridH := chipHt / float64(rows)
	gridW := chipWd / float64(cols)
	cap := specHeat * tChip * gridH * gridW
	rx := gridW / (2 * kSi * tChip * gridH)
	ry := gridH / (2 * kSi * tChip * gridW)
	rz := tChip / (kSi * gridH * gridW)
	maxSlope := maxPD / (specHeat * tChip)
	step := precision / maxSlope
	return Config{Rows: rows, Cols: cols, Rx: rx, Ry: ry, Rz: rz, Cap: cap, Step: step}
}

func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// GenerateInput produces a deterministic temperature field around
// 323K and a power map in [0, maxPD*1e-6), standing in for the
// Rodinia temp_* / power_* input files.
func GenerateInput(rows, cols int, seed uint64) (temp, power []float64) {
	n := rows * cols
	temp = make([]float64, n)
	power = make([]float64, n)
	st := seed
	for i := 0; i < n; i++ {
		temp[i] = 323 + 2*float64(splitmix64(&st)>>11)/float64(1<<53)
		power[i] = 3 * float64(splitmix64(&st)>>11) / float64(1<<53)
	}
	return temp, power
}

// stepRow advances one grid row by one time step, reading from src
// and writing dst.
func stepRow(cfg *Config, dst, src, power []float64, r int) {
	rows, cols := cfg.Rows, cfg.Cols
	stepDivCap := cfg.Step / cfg.Cap
	for c := 0; c < cols; c++ {
		idx := r*cols + c
		t := src[idx]
		up := t
		if r > 0 {
			up = src[idx-cols]
		}
		down := t
		if r < rows-1 {
			down = src[idx+cols]
		}
		left := t
		if c > 0 {
			left = src[idx-1]
		}
		right := t
		if c < cols-1 {
			right = src[idx+1]
		}
		delta := stepDivCap * (power[idx] +
			(up+down-2*t)/cfg.Ry +
			(left+right-2*t)/cfg.Rx +
			(ambTemp-t)/cfg.Rz)
		dst[idx] = t + delta
	}
}

// Seq advances the simulation steps time steps sequentially and
// returns the final temperature field. temp is not modified.
func Seq(cfg Config, temp, power []float64, steps int) []float64 {
	cur := make([]float64, len(temp))
	copy(cur, temp)
	next := make([]float64, len(temp))
	for s := 0; s < steps; s++ {
		for r := 0; r < cfg.Rows; r++ {
			stepRow(&cfg, next, cur, power, r)
		}
		cur, next = next, cur
	}
	return cur
}

// Parallel advances the simulation under model m, parallel over rows
// within each time step; the model's join is the inter-step
// dependency. temp is not modified.
func Parallel(m models.Model, cfg Config, temp, power []float64, steps int) []float64 {
	cur := make([]float64, len(temp))
	copy(cur, temp)
	next := make([]float64, len(temp))
	for s := 0; s < steps; s++ {
		src, dst := cur, next
		models.Must(m.ParallelForCtx(context.Background(), cfg.Rows, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				stepRow(&cfg, dst, src, power, r)
			}
		}))
		cur, next = next, cur
	}
	return cur
}
