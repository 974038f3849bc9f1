// Package uts implements an Unbalanced Tree Search in the style of
// the UTS benchmark the paper's related work uses to compare task
// runtimes (Olivier and Prins, "Comparison of OpenMP 3.0 and Other
// Task Parallel Frameworks on Unbalanced Task Graphs"). The tree is
// defined implicitly by a hash function, so it occupies no memory, is
// perfectly reproducible, and its shape is *unbalanced and
// unpredictable* — the property that makes it a pure test of dynamic
// load balancing: a static partition of such a tree is always wrong.
//
// We implement the binomial variant: the root has RootChildren
// children; every other node has M children with probability Q and
// none otherwise. For M*Q < 1 the tree is finite with expected size
// RootChildren/(1-M*Q) + 1.
package uts

import (
	"context"
	"sync/atomic"

	"threading/internal/models"
)

// Params describes a binomial UTS tree.
type Params struct {
	// Seed selects the tree.
	Seed uint64
	// RootChildren is the root's branching factor (b0).
	RootChildren int
	// M is the branching factor of interior non-root nodes.
	M int
	// QNum/QDen express the interior branching probability Q as a
	// rational, avoiding float state in the hot path. M*Q must be < 1
	// for the tree to be finite.
	QNum, QDen uint64
}

// valid panics on parameter combinations that give infinite trees.
func (p Params) valid() {
	if p.QDen == 0 || p.RootChildren < 0 || p.M < 0 {
		panic("uts: malformed parameters")
	}
	if uint64(p.M)*p.QNum >= p.QDen {
		panic("uts: M*Q >= 1 gives an infinite expected tree")
	}
}

func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// childID derives child i's identity from its parent's.
func childID(parent uint64, i int) uint64 {
	return mix(parent ^ (uint64(i)+0x51E03B)<<17)
}

// numChildren returns a node's branching factor. The root (depth 0)
// always has RootChildren children; interior nodes draw from the
// binomial rule.
func (p Params) numChildren(id uint64, depth int) int {
	if depth == 0 {
		return p.RootChildren
	}
	// id is already a mixed hash; compare against Q scaled to 2^64.
	threshold := uint64(float64(p.QNum) / float64(p.QDen) * float64(1<<63) * 2)
	if mix(id^0xC0FFEE) < threshold {
		return p.M
	}
	return 0
}

// Root returns the tree's root node identity.
func (p Params) Root() uint64 { return mix(p.Seed) }

// NumChildren returns the branching factor of the node with the given
// identity at the given depth.
func (p Params) NumChildren(id uint64, depth int) int {
	return p.numChildren(id, depth)
}

// Child returns the identity of child i of the given node.
func (p Params) Child(id uint64, i int) uint64 { return childID(id, i) }

// CountSeq traverses the tree sequentially (explicit stack) and
// returns the node count.
func CountSeq(p Params) int64 {
	p.valid()
	type frame struct {
		id    uint64
		depth int
	}
	stack := []frame{{id: mix(p.Seed), depth: 0}}
	var count int64
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		n := p.numChildren(f.id, f.depth)
		for i := 0; i < n; i++ {
			stack = append(stack, frame{id: childID(f.id, i), depth: f.depth + 1})
		}
	}
	return count
}

// Count traverses the tree under model m with one task per subtree
// and returns the node count. Subtrees below the spawn threshold are
// counted sequentially inside their task; threshold 0 spawns at every
// node (maximum scheduler stress, as the UTS paper runs it).
// m must support tasks.
func Count(m models.Model, p Params, seqDepth int) int64 {
	p.valid()
	var count atomic.Int64
	models.Must(m.TaskRunCtx(context.Background(), func(s models.TaskScope) {
		countScope(s, p, mix(p.Seed), 0, seqDepth, &count)
	}))
	return count.Load()
}

// countSub counts a subtree sequentially without spawning.
func countSub(p Params, id uint64, depth int) int64 {
	var count int64 = 1
	n := p.numChildren(id, depth)
	for i := 0; i < n; i++ {
		count += countSub(p, childID(id, i), depth+1)
	}
	return count
}

func countScope(s models.TaskScope, p Params, id uint64, depth, seqDepth int, count *atomic.Int64) {
	if depth >= seqDepth && seqDepth > 0 {
		count.Add(countSub(p, id, depth))
		return
	}
	count.Add(1)
	n := p.numChildren(id, depth)
	for i := 0; i < n; i++ {
		cid := childID(id, i)
		s.Spawn(func(cs models.TaskScope) {
			countScope(cs, p, cid, depth+1, seqDepth, count)
		})
	}
	s.Sync()
}

// Small returns parameters for a tree of roughly expected 20k nodes —
// large enough to be unbalanced, small enough for tests.
func Small(seed uint64) Params {
	return Params{Seed: seed, RootChildren: 200, M: 4, QNum: 2475, QDen: 10000}
}
