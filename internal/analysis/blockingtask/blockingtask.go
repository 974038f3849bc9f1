// Package blockingtask reports tasks handed to a fixed-width worker
// pool whose bodies — directly or through any depth of calls — block:
// time.Sleep, Wait on a WaitGroup/Cond/Latch/Barrier, joining a
// thread, quiescing a pool, provably unbuffered channel operations,
// or well-known blocking syscalls (exec, net dials, HTTP).
//
// Contract encoded: the paper's three runtime families all execute
// tasks on a fixed set of workers (the very property the whole
// comparison measures), so a task that parks its worker does not
// merely run late — it removes a lane from the machine. W workers and
// W simultaneously blocked tasks is a starvation collapse: the pool
// is alive, nothing progresses, and no profiler attributes the time
// (the workers are "idle"). This is the blocking-inside-stealable-
// tasks failure mode the AMT survey names as dominant for many-task
// runtimes. Thread-per-task APIs (futures.Async, futures.NewThread)
// and forkjoin's Team.SubmitCtx, which runs its function on a
// goroutine of its own, are exempt: blocking there costs one
// goroutine, not a worker lane.
//
// Mechanism: every function is summarized bottom-up over the
// interprocedural call graph into the set of blocking operations it
// may reach; summaries cross package boundaries as analysis facts.
// Task arguments at pooled entry points (SubmitCtx, Spawn, Run,
// ParallelFor bodies, TaskRun roots, ...) are then checked against
// the summary of the function they resolve to, and the diagnostic
// spells out the call chain from the task to the blocking operation.
//
// Channel operations are counted only when the channel is *provably*
// unbuffered — declared in the analyzed package and only ever made
// with make(chan T) or make(chan T, 0). Anything with an unknown or
// positive buffer is assumed intentional.
package blockingtask

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"threading/internal/analysis"
	"threading/internal/analysis/interproc"
)

// Analyzer is the blockingtask pass.
var Analyzer = &analysis.Analyzer{
	Name: "blockingtask",
	Doc: "report tasks submitted to fixed-width pools that transitively " +
		"block (Sleep, Wait, joins, unbuffered channel ops, blocking syscalls)",
	Run: run,
}

// blockFact is the exported per-function summary: the blocking
// operations the function may transitively reach.
type blockFact struct {
	Reasons []reason
}

func (*blockFact) AFact() {}

// reason is one reachable blocking operation.
type reason struct {
	// Op names the operation ("time.Sleep", "unbuffered channel send").
	Op string
	// Pos is the operation's location.
	Pos token.Pos
	// Chain lists the functions from the summarized function down to
	// the operation (empty for a direct block).
	Chain []string
}

// maxReasons bounds summary growth; one reason is enough to diagnose
// and a handful preserves useful variety.
const maxReasons = 8

// blockingFuncs names well-known blocking callees outside this
// module, keyed by package path, then receiver type ("" for
// package-level), then name.
var blockingFuncs = map[string]map[string]map[string]string{
	"time": {"": {"Sleep": "time.Sleep"}},
	"sync": {
		"WaitGroup": {"Wait": "sync.WaitGroup.Wait"},
		"Cond":      {"Wait": "sync.Cond.Wait"},
	},
	"threading/internal/syncprim": {
		"Latch":          {"Wait": "syncprim.Latch.Wait"},
		"SenseBarrier":   {"Wait": "syncprim.SenseBarrier.Wait"},
		"CentralBarrier": {"Wait": "syncprim.CentralBarrier.Wait"},
	},
	"threading/internal/futures": {
		"Thread": {"Join": "futures.Thread.Join"},
	},
	"threading/internal/worksteal": {
		"Pool": {"Quiesce": "worksteal.Pool.Quiesce"},
	},
	"threading/internal/forkjoin": {
		"Team": {"Quiesce": "forkjoin.Team.Quiesce"},
	},
	"threading/internal/shard": {
		"Resolver": {"Quiesce": "shard.Resolver.Quiesce"},
	},
	"os/exec": {
		"Cmd": {
			"Run": "exec.Cmd.Run", "Output": "exec.Cmd.Output",
			"CombinedOutput": "exec.Cmd.CombinedOutput", "Wait": "exec.Cmd.Wait",
		},
	},
	"net": {"": {"Dial": "net.Dial", "DialTimeout": "net.DialTimeout"}},
	"net/http": {
		"":       {"Get": "http.Get", "Post": "http.Post", "Head": "http.Head", "PostForm": "http.PostForm"},
		"Client": {"Do": "http.Client.Do", "Get": "http.Client.Get", "Post": "http.Client.Post"},
	},
}

// cooperative names functions whose blocking is scheduler-cooperative
// and must not propagate into task summaries. Parker.Park is the
// runtime's own parking primitive: a worker that parks through it is
// accounted for by the scheduler (help-first joins steal before
// parking, and the pool compensates parked lanes), so a task chain
// that blocks only through Park — Ctx.Sync, ForDAC joins, quiescent
// workers — is the protocol working, not a starved worker.
var cooperative = map[string]bool{
	"threading/internal/sched.Parker.Park": true,
}

// cooperativeCallee reports whether the edge's callee is exempt.
func cooperativeCallee(e *interproc.Edge) bool {
	if e.Ext != nil {
		return cooperative[analysis.ObjectKey(e.Ext)]
	}
	if e.Callee != nil && e.Callee.Fn != nil {
		return cooperative[analysis.ObjectKey(e.Callee.Fn)]
	}
	return false
}

// blockingCallee classifies a statically resolved callee as a known
// blocking operation.
func blockingCallee(f *types.Func) (string, bool) {
	if f == nil || f.Pkg() == nil {
		return "", false
	}
	recvName := ""
	if recv := analysis.ReceiverNamed(f); recv != nil {
		recvName = recv.Origin().Obj().Name()
	}
	op, ok := blockingFuncs[f.Pkg().Path()][recvName][f.Name()]
	return op, ok
}

func run(pass *analysis.Pass) error {
	g := interproc.Build(pass)
	chans := collectChannels(pass)
	order := g.Postorder()
	sums := make(map[*interproc.Node]*blockFact, len(order))
	for _, n := range order {
		sums[n] = summarize(pass, g, n, sums, chans)
	}
	for fn, n := range g.ByFn {
		if f := sums[n]; f != nil && len(f.Reasons) > 0 {
			pass.ExportObjectFact(fn, f)
		}
	}

	// Report: every task argument of a pooled entry point whose
	// target transitively blocks.
	for _, n := range g.Nodes {
		for _, e := range n.Edges {
			if e.Kind != interproc.EdgeSpawn && e.Kind != interproc.EdgeLoopBody {
				continue
			}
			if !e.Entry.Pooled {
				continue
			}
			f := targetFact(pass, &e, sums)
			if f == nil || len(f.Reasons) == 0 {
				continue
			}
			r := f.Reasons[0]
			chain := ""
			if len(r.Chain) > 0 {
				chain = " (via " + strings.Join(r.Chain, " -> ") + ")"
			}
			pass.Reportf(e.Pos,
				"task passed to %s reaches %s%s at %s; a blocked task parks one of the pool's fixed workers (starvation under load)",
				analysis.FuncName(e.EntryFn), r.Op, chain,
				pass.Fset.Position(r.Pos))
		}
	}
	return nil
}

func targetFact(pass *analysis.Pass, e *interproc.Edge, sums map[*interproc.Node]*blockFact) *blockFact {
	if e.Callee != nil {
		return sums[e.Callee]
	}
	if e.Ext != nil {
		var f blockFact
		if pass.ImportObjectFact(e.Ext, &f) {
			return &f
		}
	}
	return nil
}

// summarize computes the blocking summary of one node.
func summarize(pass *analysis.Pass, g *interproc.Graph, n *interproc.Node, sums map[*interproc.Node]*blockFact, chans map[types.Object]chanBuf) *blockFact {
	f := &blockFact{}
	add := func(r reason) {
		if len(f.Reasons) < maxReasons {
			f.Reasons = append(f.Reasons, r)
		}
	}
	analysis.WithStack(n.Body, func(nd ast.Node, stack []ast.Node) bool {
		if lit, ok := nd.(*ast.FuncLit); ok && lit != n.Lit {
			return false // separate node
		}
		switch nd := nd.(type) {
		case *ast.GoStmt:
			// A goroutine launched from the task blocks its own
			// goroutine, not the worker.
			return false
		case *ast.SendStmt:
			if isUnbuffered(pass, nd.Chan, chans) {
				add(reason{Op: "an unbuffered channel send", Pos: nd.Arrow})
			}
		case *ast.UnaryExpr:
			if nd.Op == token.ARROW && isUnbuffered(pass, nd.X, chans) {
				// Receives in a select with more than one ready path
				// are not hard blocks; skip when under a select.
				if !underSelect(stack) {
					add(reason{Op: "an unbuffered channel receive", Pos: nd.OpPos})
				}
			}
		case *ast.CallExpr:
			callee := analysis.Callee(pass.TypesInfo, nd)
			if op, ok := blockingCallee(callee); ok {
				add(reason{Op: op, Pos: nd.Pos()})
				return true
			}
			for _, e := range g.EdgesAt(nd) {
				if e.Kind != interproc.EdgeCall {
					continue // spawned work does not block this body
				}
				if cooperativeCallee(e) {
					continue // scheduler-managed parking
				}
				var tf *blockFact
				if e.Callee != nil {
					tf = sums[e.Callee]
				} else if e.Ext != nil {
					var imported blockFact
					if pass.ImportObjectFact(e.Ext, &imported) {
						tf = &imported
					}
				}
				if tf == nil {
					continue
				}
				name := calleeName(e)
				for _, r := range tf.Reasons {
					chain := append([]string{name}, r.Chain...)
					add(reason{Op: r.Op, Pos: r.Pos, Chain: chain})
				}
			}
		}
		return true
	})
	sort.SliceStable(f.Reasons, func(i, j int) bool {
		return len(f.Reasons[i].Chain) < len(f.Reasons[j].Chain)
	})
	return f
}

func calleeName(e *interproc.Edge) string {
	if e.Ext != nil {
		return analysis.FuncName(e.Ext)
	}
	if e.Callee != nil {
		return e.Callee.Name()
	}
	return "call"
}

func underSelect(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.SelectStmt:
			return true
		case *ast.FuncLit, *ast.FuncDecl:
			return false
		}
	}
	return false
}

// chanBuf is the buffering verdict for a channel variable.
type chanBuf int

const (
	bufUnknown chanBuf = iota
	bufUnbuffered
	bufBuffered
)

// collectChannels scans the package for channel variables whose every
// make site is visible, classifying them as provably unbuffered.
func collectChannels(pass *analysis.Pass) map[types.Object]chanBuf {
	out := make(map[types.Object]chanBuf)
	classify := func(obj types.Object, rhs ast.Expr) {
		if obj == nil || obj.Type() == nil {
			return
		}
		if _, isChan := obj.Type().Underlying().(*types.Chan); !isChan {
			return
		}
		v := makeVerdict(pass, rhs)
		if prev, seen := out[obj]; seen && prev != v {
			out[obj] = bufUnknown // conflicting assignment sites: give up
		} else if !seen {
			out[obj] = v
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(nd ast.Node) bool {
			switch nd := nd.(type) {
			case *ast.AssignStmt:
				if len(nd.Lhs) != len(nd.Rhs) {
					return true
				}
				for i, lhs := range nd.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					obj := pass.TypesInfo.Defs[id]
					if obj == nil {
						obj = pass.TypesInfo.Uses[id]
					}
					classify(obj, nd.Rhs[i])
				}
			case *ast.ValueSpec:
				for i, name := range nd.Names {
					if i < len(nd.Values) {
						classify(pass.TypesInfo.Defs[name], nd.Values[i])
					}
				}
			}
			return true
		})
	}
	return out
}

// makeVerdict classifies one assignment RHS as a make(chan) site.
func makeVerdict(pass *analysis.Pass, rhs ast.Expr) chanBuf {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return bufUnknown
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" {
		return bufUnknown
	}
	if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return bufUnknown
	}
	if len(call.Args) == 0 {
		return bufUnknown
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok {
		return bufUnknown
	}
	if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
		return bufUnknown
	}
	if len(call.Args) == 1 {
		return bufUnbuffered
	}
	if tv, ok := pass.TypesInfo.Types[call.Args[1]]; ok && tv.Value != nil {
		if v, ok := constant.Int64Val(tv.Value); ok && v == 0 {
			return bufUnbuffered
		}
	}
	return bufBuffered
}

// isUnbuffered reports whether the channel expression resolves to a
// variable proven to hold only unbuffered channels.
func isUnbuffered(pass *analysis.Pass, ch ast.Expr, chans map[types.Object]chanBuf) bool {
	switch e := ast.Unparen(ch).(type) {
	case *ast.Ident:
		return chans[pass.TypesInfo.Uses[e]] == bufUnbuffered
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[e]; ok {
			return chans[sel.Obj()] == bufUnbuffered
		}
		return chans[pass.TypesInfo.Uses[e.Sel]] == bufUnbuffered
	}
	return false
}
