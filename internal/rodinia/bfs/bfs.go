// Package bfs ports the Rodinia breadth-first-search benchmark: a
// level-synchronous BFS over a CSR graph with the benchmark's two
// parallel phases per level (explore the frontier, then publish the
// newly discovered frontier). Each thread receives the same number of
// nodes per phase while the work per node (its degree) varies, and
// memory access is non-contiguous — the characteristics the paper
// cites for this application.
//
// Rodinia ships a graph generator rather than real datasets; Generate
// reproduces that: every node gets a uniformly random degree in
// [1, 2*avgDegree) with uniformly random neighbors.
package bfs

import (
	"context"
	"fmt"
	"sync/atomic"

	"threading/internal/models"
)

// Unreached marks nodes not reached from the source.
const Unreached int32 = -1

// Graph is a directed graph in compressed sparse row form.
type Graph struct {
	NumNodes int
	// Offsets has NumNodes+1 entries; the neighbors of node u are
	// Edges[Offsets[u]:Offsets[u+1]].
	Offsets []int32
	Edges   []int32
}

// Degree returns the out-degree of node u.
func (g *Graph) Degree(u int32) int {
	return int(g.Offsets[u+1] - g.Offsets[u])
}

// NumEdges returns the total edge count.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// Validate checks structural invariants and returns a descriptive
// error for the first violation.
func (g *Graph) Validate() error {
	if len(g.Offsets) != g.NumNodes+1 {
		return fmt.Errorf("bfs: offsets length %d, want %d", len(g.Offsets), g.NumNodes+1)
	}
	if g.Offsets[0] != 0 {
		return fmt.Errorf("bfs: offsets[0] = %d, want 0", g.Offsets[0])
	}
	for u := 0; u < g.NumNodes; u++ {
		if g.Offsets[u+1] < g.Offsets[u] {
			return fmt.Errorf("bfs: offsets not monotone at node %d", u)
		}
	}
	if int(g.Offsets[g.NumNodes]) != len(g.Edges) {
		return fmt.Errorf("bfs: last offset %d, want %d", g.Offsets[g.NumNodes], len(g.Edges))
	}
	for i, v := range g.Edges {
		if v < 0 || int(v) >= g.NumNodes {
			return fmt.Errorf("bfs: edge %d targets %d outside [0,%d)", i, v, g.NumNodes)
		}
	}
	return nil
}

func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Generate builds a random graph in the style of the Rodinia BFS
// input generator: each node's degree is uniform in [1, 2*avgDegree)
// and its neighbors are uniform over all nodes. To guarantee the
// whole graph is reachable from node 0 (so runs traverse all n nodes,
// as the 16M-node Rodinia input effectively does), node i also links
// to node i+1.
func Generate(n, avgDegree int, seed uint64) *Graph {
	if n < 1 {
		panic("bfs: need at least one node")
	}
	if avgDegree < 1 {
		avgDegree = 1
	}
	st := seed
	degrees := make([]int32, n)
	total := 0
	for i := range degrees {
		d := int32(splitmix64(&st)%uint64(2*avgDegree-1)) + 1
		if i < n-1 {
			d++ // the chain edge
		}
		degrees[i] = d
		total += int(d)
	}
	g := &Graph{
		NumNodes: n,
		Offsets:  make([]int32, n+1),
		Edges:    make([]int32, total),
	}
	for i := 0; i < n; i++ {
		g.Offsets[i+1] = g.Offsets[i] + degrees[i]
	}
	for i := 0; i < n; i++ {
		e := g.Offsets[i]
		if i < n-1 {
			g.Edges[e] = int32(i + 1)
			e++
		}
		for ; e < g.Offsets[i+1]; e++ {
			g.Edges[e] = int32(splitmix64(&st) % uint64(n))
		}
	}
	return g
}

// Seq runs a sequential level-synchronous BFS from src and returns
// each node's level (Unreached if not reachable).
func Seq(g *Graph, src int32) []int32 {
	cost := make([]int32, g.NumNodes)
	for i := range cost {
		cost[i] = Unreached
	}
	cost[src] = 0
	frontier := []int32{src}
	for level := int32(1); len(frontier) > 0; level++ {
		var next []int32
		for _, u := range frontier {
			for _, v := range g.Edges[g.Offsets[u]:g.Offsets[u+1]] {
				if cost[v] == Unreached {
					cost[v] = level
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return cost
}

// Parallel runs the Rodinia two-phase BFS from src under model m and
// returns each node's level. Both phases enumerate all nodes, as in
// the original benchmark (mask arrays, not worklists).
func Parallel(m models.Model, g *Graph, src int32) []int32 {
	n := g.NumNodes
	cost := make([]int32, n)
	for i := range cost {
		cost[i] = Unreached
	}
	mask := make([]int32, n)     // current frontier
	updating := make([]int32, n) // next frontier, written concurrently
	visited := make([]int32, n)

	cost[src] = 0
	mask[src] = 1
	visited[src] = 1

	for {
		var progressed atomic.Bool
		// Phase 1: expand the frontier. Multiple frontier nodes may
		// discover the same neighbor; they write identical cost
		// values, but the mark must still be atomic to stay
		// race-free.
		models.Must(m.ParallelForCtx(context.Background(), n, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				if mask[u] == 0 {
					continue
				}
				mask[u] = 0
				cu := cost[u]
				for _, v := range g.Edges[g.Offsets[u]:g.Offsets[u+1]] {
					if atomic.LoadInt32(&visited[v]) == 0 {
						atomic.StoreInt32(&cost[v], cu+1)
						atomic.StoreInt32(&updating[v], 1)
					}
				}
			}
		}))
		// Phase 2: publish newly discovered nodes as the next
		// frontier.
		models.Must(m.ParallelForCtx(context.Background(), n, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				if updating[v] == 0 {
					continue
				}
				updating[v] = 0
				mask[v] = 1
				visited[v] = 1
				progressed.Store(true)
			}
		}))
		if !progressed.Load() {
			return cost
		}
	}
}
