package forkjoin

import "sync"

// This file implements OpenMP 4.0-style task dependencies — the
// `depend(in/out/inout)` clause of the paper's Table I (data/event-
// driven parallelism row for OpenMP). The paper cites the authors'
// own prototype of this feature (Ghosh et al., "A Prototype
// Implementation of OpenMP Task Dependency Support"); this is the
// same construction: a per-region dependency table keyed by the
// depend-object address, where each new task serializes against the
// last writer (for in) and against all readers plus the last writer
// (for out/inout).

// Deps declares a task's dependences. Objects are compared by
// identity (use pointers to the protected data, as OpenMP uses base
// addresses).
type Deps struct {
	// In lists objects the task reads: it must wait for the previous
	// writer of each.
	In []any
	// Out lists objects the task writes: it must wait for the
	// previous writer and all readers since — and becomes the new
	// last writer. (OpenMP's out and inout have identical ordering
	// semantics, so both are expressed here.)
	Out []any
}

// depEntry tracks the dependence history of one object within the
// enclosing task's domain.
type depEntry struct {
	lastWriter *depTask
	// readers since the last writer.
	readers []*depTask
}

// depTask is the dependency-graph node of one deferred task.
type depTask struct {
	fn        func(*Ctx)
	node      *taskNode
	dom       *depDomain
	waitCount int // unmet predecessors; guarded by the domain mutex
	succs     []*depTask
	done      bool
}

// depDomain is the dependency table of one generating task: sibling
// tasks with depend clauses are ordered against each other, matching
// OpenMP's rule that dependences connect sibling tasks only.
type depDomain struct {
	mu      sync.Mutex
	entries map[any]*depEntry
}

func newDepDomain() *depDomain {
	return &depDomain{entries: make(map[any]*depEntry)}
}

func (d *depDomain) entry(obj any) *depEntry {
	e, ok := d.entries[obj]
	if !ok {
		e = &depEntry{}
		d.entries[obj] = e
	}
	return e
}

// addEdge makes succ wait for pred unless pred already finished.
// Both locks are held by the caller (domain mutex).
func addEdge(pred, succ *depTask) {
	if pred == nil || pred.done || pred == succ {
		return
	}
	pred.succs = append(pred.succs, succ)
	succ.waitCount++
}

// TaskDepend creates an explicit task ordered by deps against its
// sibling tasks — the OpenMP `task depend(...)` construct. Tasks
// whose dependences are already satisfied are queued immediately;
// others start when their last predecessor finishes. Dependences
// relate tasks created by the same parent task (or the same implicit
// region task), as in OpenMP.
func (tc *Ctx) TaskDepend(deps Deps, fn func(*Ctx)) {
	t := tc.m.team
	tc.m.st.CountSpawn()
	node := &taskNode{parent: tc.m.cur}
	tc.m.cur.children.Add(1)
	t.outstanding.Add(1)

	dom := tc.m.cur.depDomain()
	dt := &depTask{fn: fn, node: node, dom: dom}

	dom.mu.Lock()
	for _, obj := range deps.In {
		e := dom.entry(obj)
		addEdge(e.lastWriter, dt)
		e.readers = append(e.readers, dt)
	}
	for _, obj := range deps.Out {
		e := dom.entry(obj)
		addEdge(e.lastWriter, dt)
		for _, r := range e.readers {
			addEdge(r, dt)
		}
		e.lastWriter = dt
		e.readers = nil
	}
	ready := dt.waitCount == 0
	dom.mu.Unlock()

	if ready {
		dt.enqueue(tc.m)
	}
}

// enqueue makes the dependency task schedulable by pushing it on m's
// deque. m must be the member whose goroutine is executing the call
// (the creator at first enqueue, or whichever member completed the
// last predecessor), since only a deque's owner may push to it.
func (dt *depTask) enqueue(m *member) {
	// The wrapper record comes from m's arena, but its node is the
	// depTask's standalone node (own stays unused): the dependency
	// graph references nodes beyond any single record's lifetime.
	tk := m.Alloc()
	tk.node = dt.node
	tk.fn = func(tc *Ctx) {
		dt.fn(tc)
		// Completion: release successors under the domain lock.
		dt.dom.mu.Lock()
		dt.done = true
		var ready []*depTask
		for _, s := range dt.succs {
			s.waitCount--
			if s.waitCount == 0 {
				ready = append(ready, s)
			}
		}
		dt.succs = nil
		dt.dom.mu.Unlock()
		for _, s := range ready {
			s.enqueue(tc.m)
		}
	}
	m.Push(tk)
}

// depDomain lazily creates the dependency table attached to a task
// node.
func (n *taskNode) depDomain() *depDomain {
	n.depOnce.Do(func() { n.deps = newDepDomain() })
	return n.deps
}
