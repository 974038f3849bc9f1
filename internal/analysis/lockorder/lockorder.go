// Package lockorder reports cycles in the mutex acquisition-order
// graph — the static face of ABBA deadlock — including cycles that
// only close across a task-spawn boundary.
//
// Contract encoded: the module's runtimes interleave foreign work
// with the caller's stack. Under help-first joins, a goroutine that
// holds lock A while it submits or joins work may execute a *stolen*
// task on its own stack; if any task in the system acquires B then A
// while a peer acquires A then B, the two orders form a cycle that a
// fixed-width pool turns into a hard deadlock (no spare worker exists
// to break the tie, unlike free-threaded Go). Quantifying OpenMP
// (PAPERS.md) finds misordered nested locking among the dominant
// real-world OpenMP defects; the AMT survey adds that the hazard
// worsens as scheduling moves from fork-join to message/shard
// routing, because the task that closes the cycle runs ever farther
// from the code that opened it.
//
// Mechanism: each function is summarized bottom-up over the
// interprocedural call graph into (a) the set of lock classes it may
// transitively acquire and (b) the acquisition-order edges it
// induces: an edge A -> B arises from acquiring B while holding A
// directly, from calling a function that (transitively) acquires B
// while holding A, or from passing a task to a runtime entry point
// while holding A when the task acquires B — the spawn-edge case, in
// which the acquisition happens on another worker (or on this very
// stack, via help-first stealing) while A is still held. Summaries
// cross package boundaries as analysis facts; the driver's
// dependency-order traversal makes callee facts available to
// callers. Cycles among the accumulated edges are reported at every
// in-package edge that participates in one.
//
// Lock identity is class-based (see interproc.LockClass): all
// instances of a struct field are one class. Self-edges (A -> A) are
// excluded from cycle detection — with instance conflation they are
// usually two different instances locked in sequence, and the
// genuinely recursive single-instance case is caught at runtime by
// the very first execution.
package lockorder

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"threading/internal/analysis"
	"threading/internal/analysis/interproc"
)

// Analyzer is the lockorder pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "report mutex acquisition-order cycles (ABBA deadlock), including " +
		"cycles that close across Spawn/SubmitCtx/ParallelFor task boundaries",
	Run: run,
}

// lockFact is the exported per-function summary.
type lockFact struct {
	// Acquires lists the lock classes the function may acquire,
	// transitively through calls (and through tasks it may run on the
	// caller's stack).
	Acquires []string
	// Edges are the acquisition-order edges the function induces,
	// transitively.
	Edges []orderEdge
}

func (*lockFact) AFact() {}

// orderEdge is one acquisition-order constraint From -> To.
type orderEdge struct {
	From, To         string
	FromDisp, ToDisp string
	// Pos is where the edge was discovered (the acquire, call, or
	// spawn site).
	Pos token.Pos
	// Via describes the mechanism for the diagnostic ("", "via call
	// to f", "in a task spawned while the lock is held").
	Via string
}

// maxSummary bounds per-function summary growth on pathological
// inputs; beyond it the summary saturates (sound for reporting
// precision, not completeness).
const maxSummary = 256

type summary struct {
	acquires map[string]string       // class -> display
	edges    map[[2]string]orderEdge // (from,to) -> first edge
}

func newSummary() *summary {
	return &summary{
		acquires: make(map[string]string),
		edges:    make(map[[2]string]orderEdge),
	}
}

func (s *summary) addAcquire(class, disp string) {
	if len(s.acquires) >= maxSummary {
		return
	}
	if _, ok := s.acquires[class]; !ok {
		s.acquires[class] = disp
	}
}

func (s *summary) addEdge(e orderEdge) {
	if e.From == e.To {
		return // see package doc: self-edges are instance-ambiguous
	}
	if len(s.edges) >= maxSummary {
		return
	}
	key := [2]string{e.From, e.To}
	if _, ok := s.edges[key]; !ok {
		s.edges[key] = e
	}
}

func (s *summary) fact() *lockFact {
	f := &lockFact{}
	for c := range s.acquires {
		f.Acquires = append(f.Acquires, c)
	}
	sort.Strings(f.Acquires)
	for _, e := range s.edges {
		f.Edges = append(f.Edges, e)
	}
	sort.Slice(f.Edges, func(i, j int) bool {
		a, b := f.Edges[i], f.Edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	return f
}

func run(pass *analysis.Pass) error {
	g := interproc.Build(pass)
	order := g.Postorder()
	sums := make(map[*interproc.Node]*summary, len(order))
	for _, n := range order {
		sums[n] = summarize(pass, g, n, sums)
	}
	// Export facts for declared functions so dependent packages see
	// their lock behaviour.
	for fn, n := range g.ByFn {
		if s := sums[n]; s != nil && (len(s.acquires) > 0 || len(s.edges) > 0) {
			pass.ExportObjectFact(fn, s.fact())
		}
	}
	report(pass, sums)
	return nil
}

type heldLock struct {
	class, disp string
	pos         token.Pos
}

// summarize computes one node's lock summary from its body and the
// summaries of everything it references.
func summarize(pass *analysis.Pass, g *interproc.Graph, n *interproc.Node, sums map[*interproc.Node]*summary) *summary {
	s := newSummary()
	var held []heldLock

	analysis.WithStack(n.Body, func(nd ast.Node, stack []ast.Node) bool {
		if lit, ok := nd.(*ast.FuncLit); ok && lit != n.Lit {
			return false // nested literals are separate nodes
		}
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op, class, disp := interproc.LockOp(pass.TypesInfo, pass.Pkg, call); op != interproc.LockNone {
			deferred := len(stack) > 0 && interproc.IsDeferredCall(stack[len(stack)-1], call)
			switch {
			case op == interproc.LockAcquire && !deferred:
				for _, h := range held {
					s.addEdge(orderEdge{
						From: h.class, To: class,
						FromDisp: h.disp, ToDisp: disp,
						Pos: call.Pos(),
					})
				}
				s.addAcquire(class, disp)
				held = append(held, heldLock{class: class, disp: disp, pos: call.Pos()})
			case op == interproc.LockRelease && !deferred:
				for i := len(held) - 1; i >= 0; i-- {
					if held[i].class == class {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			}
			return true
		}

		for _, e := range g.EdgesAt(call) {
			target := calleeSummary(pass, e, sums)
			if target == nil {
				continue
			}
			// Propagate the callee's edges so cycles assembled from
			// pieces in different functions (and packages) are visible
			// to whoever holds the final piece.
			for _, te := range target.Edges {
				s.addEdge(te)
			}
			switch e.Kind {
			case interproc.EdgeCall:
				for _, c := range target.Acquires {
					for _, h := range held {
						s.addEdge(orderEdge{
							From: h.class, To: c,
							FromDisp: h.disp, ToDisp: shortClass(c),
							Pos: call.Pos(),
							Via: "via " + calleeName(e),
						})
					}
					s.addAcquire(c, shortClass(c))
				}
			case interproc.EdgeSpawn, interproc.EdgeLoopBody:
				for _, c := range target.Acquires {
					for _, h := range held {
						s.addEdge(orderEdge{
							From: h.class, To: c,
							FromDisp: h.disp, ToDisp: shortClass(c),
							Pos: call.Pos(),
							Via: "in a task passed to " + calleeName(e) + " while the lock is held",
						})
					}
					if e.Entry.OnCallerStack {
						// Help-first joins may run the task (or a
						// stolen peer) on this very stack.
						s.addAcquire(c, shortClass(c))
					}
				}
			}
		}
		return true
	})

	// Literals whose fate is unknown: fold their acquires (a caller
	// may invoke them) but induce no held-edges at the definition.
	for _, e := range n.Edges {
		if e.Kind != interproc.EdgeRef || e.Callee == nil {
			continue
		}
		if target := sums[e.Callee]; target != nil {
			for c, d := range target.acquires {
				s.addAcquire(c, d)
			}
			for _, te := range target.edges {
				s.addEdge(te)
			}
		}
	}
	return s
}

// calleeSummary resolves the lock summary of an edge target: local
// node summaries for in-package targets, imported facts for external
// ones.
func calleeSummary(pass *analysis.Pass, e *interproc.Edge, sums map[*interproc.Node]*summary) *lockFact {
	if e.Callee != nil {
		if s := sums[e.Callee]; s != nil {
			return s.fact()
		}
		return nil // recursion within an SCC: single-pass approximation
	}
	if e.Ext != nil {
		var f lockFact
		if pass.ImportObjectFact(e.Ext, &f) {
			return &f
		}
	}
	return nil
}

func calleeName(e *interproc.Edge) string {
	switch {
	case e.EntryFn != nil:
		return analysis.FuncName(e.EntryFn)
	case e.Ext != nil:
		return analysis.FuncName(e.Ext)
	case e.Callee != nil:
		return e.Callee.Name()
	}
	return "call"
}

// report finds cycles over the union of every summary's edges and
// reports each in-package edge participating in one.
func report(pass *analysis.Pass, sums map[*interproc.Node]*summary) {
	edges := make(map[[2]string]orderEdge)
	for _, s := range sums {
		for k, e := range s.edges {
			if _, ok := edges[k]; !ok {
				edges[k] = e
			}
		}
	}
	if len(edges) == 0 {
		return
	}
	adj := make(map[string][]string)
	for k := range edges {
		adj[k[0]] = append(adj[k[0]], k[1])
	}
	inPkg := packageFiles(pass)

	reported := make(map[[2]string]bool)
	var keys [][2]string
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		e := edges[k]
		if reported[k] || !inPkg[pass.Fset.File(e.Pos)] {
			continue
		}
		// The edge closes a cycle iff From is reachable from To.
		path := findPath(adj, e.To, e.From)
		if path == nil {
			continue
		}
		reported[k] = true
		via := ""
		if e.Via != "" {
			via = " " + e.Via
		}
		pass.Reportf(e.Pos,
			"acquiring %q while %q is held%s closes the lock-order cycle %s (ABBA deadlock: a concurrent task may acquire the same locks in the opposite order)",
			e.ToDisp, e.FromDisp, via, cycleString(e, path))
	}
}

// findPath BFSes from -> to over adj and returns the node path
// (excluding from), or nil.
func findPath(adj map[string][]string, from, to string) []string {
	type item struct {
		node string
		prev int
	}
	queue := []item{{node: from, prev: -1}}
	seen := map[string]bool{from: true}
	for i := 0; i < len(queue); i++ {
		cur := queue[i]
		if cur.node == to {
			var rev []string
			for j := i; j != -1; j = queue[j].prev {
				rev = append(rev, queue[j].node)
			}
			path := make([]string, 0, len(rev))
			for j := len(rev) - 1; j >= 0; j-- {
				path = append(path, rev[j])
			}
			return path
		}
		next := adj[cur.node]
		sorted := append([]string(nil), next...)
		sort.Strings(sorted)
		for _, n := range sorted {
			if !seen[n] {
				seen[n] = true
				queue = append(queue, item{node: n, prev: i})
			}
		}
	}
	return nil
}

// cycleString renders From -> To -> ... -> From with short class
// names.
func cycleString(e orderEdge, path []string) string {
	parts := []string{shortClass(e.From), shortClass(e.To)}
	for _, n := range path[1:] { // path[0] == e.To
		parts = append(parts, shortClass(n))
	}
	return strings.Join(parts, " -> ")
}

// shortClass trims the package path from a lock class for display:
// "threading/internal/x.Type.mu" -> "Type.mu".
func shortClass(class string) string {
	if i := strings.LastIndex(class, "/"); i >= 0 {
		class = class[i+1:]
	}
	if i := strings.IndexByte(class, '.'); i >= 0 {
		return class[i+1:]
	}
	return class
}

func packageFiles(pass *analysis.Pass) map[*token.File]bool {
	out := make(map[*token.File]bool, len(pass.Files))
	for _, f := range pass.Files {
		out[pass.Fset.File(f.Pos())] = true
	}
	return out
}
