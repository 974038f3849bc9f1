// Package kmeans ports the Rodinia K-means benchmark: iterative
// clustering of n points in d dimensions around k centers. Each
// iteration is a parallel assignment phase (every point finds its
// nearest center — uniform, compute-heavy) followed by a center
// update from per-thread partial sums, the structure of the Rodinia
// OpenMP implementation.
//
// (K-means is part of the Rodinia suite the paper evaluates from; it
// is included as an extension workload.)
package kmeans

import (
	"context"
	"sync"

	"threading/internal/models"
)

// Dataset is n points of d float64 coordinates, row-major.
type Dataset struct {
	N, D   int
	Points []float64
}

func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Generate builds a deterministic dataset of k natural clusters:
// cluster centers on a coarse lattice with points scattered tightly
// around them, so K-means has real structure to find.
func Generate(n, d, k int, seed uint64) *Dataset {
	if n < 1 || d < 1 || k < 1 {
		panic("kmeans: n, d, k must be positive")
	}
	ds := &Dataset{N: n, D: d, Points: make([]float64, n*d)}
	st := seed
	// Lattice cluster centers in [0, 10)^d.
	centers := make([]float64, k*d)
	for i := range centers {
		centers[i] = float64(splitmix64(&st) % 10)
	}
	for p := 0; p < n; p++ {
		c := p % k
		for j := 0; j < d; j++ {
			noise := (float64(splitmix64(&st)>>11)/float64(1<<53) - 0.5) * 0.5
			ds.Points[p*d+j] = centers[c*d+j] + noise
		}
	}
	return ds
}

// Result holds a clustering outcome.
type Result struct {
	// Centers is k x d, row-major.
	Centers []float64
	// Membership[i] is point i's cluster.
	Membership []int32
	// Iterations actually performed.
	Iterations int
}

// nearest returns the index of the center closest to point p
// (squared Euclidean distance; ties to the lower index, so the result
// is deterministic).
func nearest(point, centers []float64, k, d int) int32 {
	best := int32(0)
	bestDist := distSq(point, centers[:d])
	for c := 1; c < k; c++ {
		if dd := distSq(point, centers[c*d:(c+1)*d]); dd < bestDist {
			bestDist = dd
			best = int32(c)
		}
	}
	return best
}

func distSq(a, b []float64) float64 {
	var s float64
	for i := range a {
		diff := a[i] - b[i]
		s += diff * diff
	}
	return s
}

// initialCenters copies the first k points, Rodinia's initialization.
func initialCenters(ds *Dataset, k int) []float64 {
	centers := make([]float64, k*ds.D)
	copy(centers, ds.Points[:k*ds.D])
	return centers
}

// Seq clusters sequentially for at most maxIters iterations, stopping
// early when no membership changes.
func Seq(ds *Dataset, k, maxIters int) *Result {
	if k > ds.N {
		panic("kmeans: more clusters than points")
	}
	centers := initialCenters(ds, k)
	membership := make([]int32, ds.N)
	for i := range membership {
		membership[i] = -1
	}
	sums := make([]float64, k*ds.D)
	counts := make([]int64, k)
	iters := 0
	for it := 0; it < maxIters; it++ {
		iters++
		changed := false
		for i := range sums {
			sums[i] = 0
		}
		for i := range counts {
			counts[i] = 0
		}
		for p := 0; p < ds.N; p++ {
			point := ds.Points[p*ds.D : (p+1)*ds.D]
			c := nearest(point, centers, k, ds.D)
			if membership[p] != c {
				membership[p] = c
				changed = true
			}
			for j := 0; j < ds.D; j++ {
				sums[int(c)*ds.D+j] += point[j]
			}
			counts[c]++
		}
		updateCenters(centers, sums, counts, k, ds.D)
		if !changed {
			break
		}
	}
	return &Result{Centers: centers, Membership: membership, Iterations: iters}
}

// updateCenters replaces each non-empty cluster's center by its mean.
func updateCenters(centers, sums []float64, counts []int64, k, d int) {
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			continue // Rodinia keeps empty clusters' old centers
		}
		inv := 1 / float64(counts[c])
		for j := 0; j < d; j++ {
			centers[c*d+j] = sums[c*d+j] * inv
		}
	}
}

// Parallel clusters under model m: the assignment phase runs as a
// parallel loop with chunk-local partial sums merged under a lock
// (the Rodinia OpenMP scheme of per-thread partial new_centers).
func Parallel(m models.Model, ds *Dataset, k, maxIters int) *Result {
	if k > ds.N {
		panic("kmeans: more clusters than points")
	}
	d := ds.D
	centers := initialCenters(ds, k)
	membership := make([]int32, ds.N)
	for i := range membership {
		membership[i] = -1
	}
	sums := make([]float64, k*d)
	counts := make([]int64, k)
	iters := 0
	for it := 0; it < maxIters; it++ {
		iters++
		for i := range sums {
			sums[i] = 0
		}
		for i := range counts {
			counts[i] = 0
		}
		var mu sync.Mutex
		changed := false
		models.Must(m.ParallelForCtx(context.Background(), ds.N, func(lo, hi int) {
			localSums := make([]float64, k*d)
			localCounts := make([]int64, k)
			localChanged := false
			for p := lo; p < hi; p++ {
				point := ds.Points[p*d : (p+1)*d]
				c := nearest(point, centers, k, d)
				if membership[p] != c {
					membership[p] = c
					localChanged = true
				}
				for j := 0; j < d; j++ {
					localSums[int(c)*d+j] += point[j]
				}
				localCounts[c]++
			}
			mu.Lock()
			for i := range sums {
				sums[i] += localSums[i]
			}
			for i := range counts {
				counts[i] += localCounts[i]
			}
			changed = changed || localChanged
			mu.Unlock()
		}))
		updateCenters(centers, sums, counts, k, d)
		if !changed {
			break
		}
	}
	return &Result{Centers: centers, Membership: membership, Iterations: iters}
}
