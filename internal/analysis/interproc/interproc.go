// Package interproc is the interprocedural substrate of the threadvet
// suite: a registry of the runtimes' task entry points, a per-package
// call graph whose edges distinguish ordinary calls from task spawns
// and parallel-loop bodies, and canonical lock-class resolution for
// sync.(RW)Mutex operations.
//
// The division of labour mirrors how the x/tools ecosystem layers
// ctrlflow/buildssa under the vet analyzers: this package computes the
// structures every interprocedural analyzer needs exactly once per
// pass, and the analyzers (lockorder, blockingtask, racecapture, ...)
// run their dataflow over it. Cross-package flow rides on
// analysis.FactStore: each analyzer summarizes the functions of the
// package being analyzed into facts, and the driver's
// dependency-order traversal makes callee summaries available when
// callers are analyzed.
package interproc

import (
	"go/ast"
	"go/types"

	"threading/internal/analysis"
)

// TaskParam describes one function-typed parameter of an entry point
// that the runtime executes as a task.
type TaskParam struct {
	// Index is the argument position.
	Index int
	// Loop marks a parallel-loop body: the function receives a range
	// (or index) and is invoked once per chunk, concurrently.
	Loop bool
}

// Entry describes one runtime entry point that accepts task
// functions.
type Entry struct {
	// TaskParams lists the argument positions holding task functions.
	TaskParams []TaskParam
	// OnCallerStack marks entry points that may execute submitted (or
	// stolen) tasks on the calling goroutine before returning —
	// blocking joins and help-first work stealing. Locks held at the
	// call site therefore order-before locks the tasks acquire.
	OnCallerStack bool
	// Pooled marks entry points whose tasks run on a fixed-width
	// worker pool, where a blocked task permanently occupies a
	// worker. Thread-per-task APIs (futures.Async, futures.NewThread,
	// forkjoin's Team.SubmitCtx) are not pooled: blocking there costs a
	// goroutine, not a lane.
	Pooled bool
}

// registry maps package path -> receiver type name ("" for
// package-level functions) -> function name -> Entry. It names every
// API of this module that accepts a function the runtime will execute
// concurrently with (or interleaved on the stack of) the caller.
var registry = map[string]map[string]map[string]Entry{
	"threading/internal/worksteal": {
		"Pool": {
			"Run":               {TaskParams: []TaskParam{{Index: 0}}, OnCallerStack: true, Pooled: true},
			"RunCtx":            {TaskParams: []TaskParam{{Index: 1}}, OnCallerStack: true, Pooled: true},
			"SubmitCtx":         {TaskParams: []TaskParam{{Index: 1}}, Pooled: true},
			"ParallelForCtx":    {TaskParams: []TaskParam{{Index: 4, Loop: true}}, OnCallerStack: true, Pooled: true},
			"ParallelReduceCtx": {TaskParams: []TaskParam{{Index: 5, Loop: true}, {Index: 6}}, OnCallerStack: true, Pooled: true},
		},
		"Ctx": {
			"Spawn":  {TaskParams: []TaskParam{{Index: 0}}, OnCallerStack: true, Pooled: true},
			"ForDAC": {TaskParams: []TaskParam{{Index: 3, Loop: true}}, OnCallerStack: true, Pooled: true},
			"ForEach": {TaskParams: []TaskParam{{Index: 3, Loop: true}},
				OnCallerStack: true, Pooled: true},
		},
	},
	"threading/internal/forkjoin": {
		"Team": {
			"Parallel":          {TaskParams: []TaskParam{{Index: 0}}, OnCallerStack: true, Pooled: true},
			"ParallelCtx":       {TaskParams: []TaskParam{{Index: 1}}, OnCallerStack: true, Pooled: true},
			"SubmitCtx":         {TaskParams: []TaskParam{{Index: 1}}}, // fn runs on a goroutine of its own
			"ParallelForCtx":    {TaskParams: []TaskParam{{Index: 4, Loop: true}}, OnCallerStack: true, Pooled: true},
			"ParallelReduceCtx": {TaskParams: []TaskParam{{Index: 5, Loop: true}, {Index: 6}}, OnCallerStack: true, Pooled: true},
		},
	},
	"threading/internal/shard": {
		"Resolver": {
			"SubmitCtx":         {TaskParams: []TaskParam{{Index: 1}}, Pooled: true},
			"ParallelForCtx":    {TaskParams: []TaskParam{{Index: 4, Loop: true}}, OnCallerStack: true, Pooled: true},
			"ParallelReduceCtx": {TaskParams: []TaskParam{{Index: 5, Loop: true}, {Index: 6}}, OnCallerStack: true, Pooled: true},
		},
	},
	"threading/internal/models": {
		"Model": {
			"ParallelForCtx":    {TaskParams: []TaskParam{{Index: 2, Loop: true}}, OnCallerStack: true, Pooled: true},
			"ParallelReduceCtx": {TaskParams: []TaskParam{{Index: 3, Loop: true}, {Index: 4}}, OnCallerStack: true, Pooled: true},
			"TaskRunCtx":        {TaskParams: []TaskParam{{Index: 1}}, OnCallerStack: true, Pooled: true},
		},
		"TaskScope": {
			"Spawn": {TaskParams: []TaskParam{{Index: 0}}, OnCallerStack: true, Pooled: true},
		},
	},
	"threading/internal/futures": {
		"": {
			"Async":     {TaskParams: []TaskParam{{Index: 1}}},
			"NewThread": {TaskParams: []TaskParam{{Index: 0}}},
		},
	},
}

// Classify reports whether call is a task entry point, returning the
// resolved callee and its Entry description.
func Classify(info *types.Info, call *ast.CallExpr) (*types.Func, Entry, bool) {
	callee := analysis.Callee(info, call)
	if callee == nil || callee.Pkg() == nil {
		return nil, Entry{}, false
	}
	recvName := ""
	if recv := analysis.ReceiverNamed(callee); recv != nil {
		recvName = recv.Origin().Obj().Name()
	}
	byRecv, ok := registry[callee.Pkg().Path()]
	if !ok {
		return nil, Entry{}, false
	}
	e, ok := byRecv[recvName][callee.Name()]
	if !ok {
		return nil, Entry{}, false
	}
	return callee, e, true
}

// TaskArg is one task-function argument at an entry-point call site:
// a function literal, a statically resolved declared function, or
// (both nil) a dynamic function value the analysis cannot follow.
type TaskArg struct {
	Param TaskParam
	Expr  ast.Expr
	Lit   *ast.FuncLit
	Fn    *types.Func
}

// TaskArgs resolves the task arguments of a classified call.
func TaskArgs(info *types.Info, call *ast.CallExpr, e Entry) []TaskArg {
	var out []TaskArg
	for _, p := range e.TaskParams {
		if p.Index >= len(call.Args) {
			continue
		}
		arg := ast.Unparen(call.Args[p.Index])
		ta := TaskArg{Param: p, Expr: arg}
		switch a := arg.(type) {
		case *ast.FuncLit:
			ta.Lit = a
		case *ast.Ident:
			ta.Fn, _ = info.Uses[a].(*types.Func)
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[a]; ok {
				ta.Fn, _ = sel.Obj().(*types.Func)
			} else {
				ta.Fn, _ = info.Uses[a.Sel].(*types.Func)
			}
		}
		out = append(out, ta)
	}
	return out
}
