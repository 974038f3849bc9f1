// Package handlereuse reports uses of a task handle or execution
// region after the operation that consumes it: joining a
// futures.Thread twice (or after Detach), and submitting to or
// re-closing a Pool, Team, Resolver, Model, or Device after Close.
//
// The runtime already turns most of these into panics or deadlocks —
// Thread.Join panics on the second call, a closed Pool's SubmitCtx
// returns ErrClosed — but only when the path executes. This analyzer
// moves the failure to vet time for the straight-line cases, which is
// where the C++-style handle discipline the paper's futures model
// mimics (std::thread terminates on double-join) actually bites.
//
// The analysis is per-block and flow-insensitive across branches: a
// consumption inside an if body does not poison the code after the
// if (either arm may not run), and reassigning the handle variable
// revives it. Deferred consumers (`defer p.Close()`) neither consume
// nor get reported — they run at function exit in reverse order,
// after every lexically later use.
//
// The double-Close diagnostic carries a SuggestedFix deleting the
// redundant statement; `threadvet -fix` applies it.
package handlereuse

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"threading/internal/analysis"
)

// Analyzer is the handlereuse pass.
var Analyzer = &analysis.Analyzer{
	Name: "handlereuse",
	Doc: "report joins of an already-joined thread handle and calls on " +
		"closed pools, teams, resolvers, models, and devices",
	Run: run,
}

// handleClass describes one tracked handle type: which methods
// consume the handle and which methods are dead once it is consumed.
type handleClass struct {
	consume map[string]bool
	dead    map[string]bool
	// verb names the consuming action in diagnostics ("joined",
	// "closed").
	verb string
}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// classes maps "pkgPath.TypeName" to its handle discipline. Keys
// follow interproc's entry-point registry; Model is an interface, so
// method lookups go through Named.Obj of the receiver's named type,
// which works the same way for interfaces.
var classes = map[string]handleClass{
	"threading/internal/futures.Thread": {
		consume: set("Join", "Detach"),
		dead:    set("Join", "JoinCtx", "Detach"),
		verb:    "joined or detached",
	},
	"threading/internal/worksteal.Pool": {
		consume: set("Close"),
		dead: set("Close", "Run", "RunCtx", "SubmitCtx",
			"ParallelForCtx", "ParallelReduceCtx"),
		verb: "closed",
	},
	"threading/internal/forkjoin.Team": {
		consume: set("Close"),
		dead: set("Close", "Parallel", "ParallelCtx", "SubmitCtx",
			"ParallelForCtx", "ParallelReduceCtx"),
		verb: "closed",
	},
	"threading/internal/shard.Resolver": {
		consume: set("Close"),
		dead: set("Close", "SubmitCtx", "ParallelForCtx",
			"ParallelReduceCtx"),
		verb: "closed",
	},
	"threading/internal/models.Model": {
		consume: set("Close"),
		dead: set("Close", "ParallelForCtx", "ParallelReduceCtx",
			"TaskRunCtx"),
		verb: "closed",
	},
	"threading/internal/offload.Device": {
		consume: set("Close"),
		dead: set("Close", "Alloc", "ToDevice", "FromDevice", "Launch",
			"LaunchCtx", "Target", "TargetCtx", "NewStream"),
		verb: "closed",
	},
}

// consumption records where and how a handle was consumed.
type consumption struct {
	pos    string // printed position of the consuming call
	method string
	class  handleClass
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(nd ast.Node) bool {
			switch nd := nd.(type) {
			case *ast.FuncDecl:
				if nd.Body != nil {
					scanBlock(pass, nd.Body.List, map[string]consumption{})
				}
				return false
			case *ast.FuncLit:
				scanBlock(pass, nd.Body.List, map[string]consumption{})
				return false
			}
			return true
		})
	}
	return nil
}

// scanBlock walks one statement list in order, threading the
// consumed-handle state through it. Nested control-flow blocks get a
// copy of the state (their consumptions don't leak out); nested
// function literals get a fresh empty state (they may run at any
// time relative to this block).
func scanBlock(pass *analysis.Pass, stmts []ast.Stmt, state map[string]consumption) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.DeferStmt, *ast.GoStmt:
			// Deferred/concurrent calls execute at another time;
			// ordering arguments don't apply. Still scan any literal
			// bodies inside.
			scanLits(pass, stmt)
		case *ast.IfStmt:
			if s.Init != nil {
				scanStmtCalls(pass, s.Init, state)
			}
			scanBlock(pass, s.Body.List, copyState(state))
			if s.Else != nil {
				if blk, ok := s.Else.(*ast.BlockStmt); ok {
					scanBlock(pass, blk.List, copyState(state))
				} else {
					scanBlock(pass, []ast.Stmt{s.Else}, copyState(state))
				}
			}
		case *ast.ForStmt:
			scanBlock(pass, s.Body.List, copyState(state))
		case *ast.RangeStmt:
			scanBlock(pass, s.Body.List, copyState(state))
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			ast.Inspect(s, func(n ast.Node) bool {
				if cc, ok := n.(*ast.CaseClause); ok {
					scanBlock(pass, cc.Body, copyState(state))
					return false
				}
				if cc, ok := n.(*ast.CommClause); ok {
					scanBlock(pass, cc.Body, copyState(state))
					return false
				}
				return true
			})
		case *ast.BlockStmt:
			scanBlock(pass, s.List, state)
		case *ast.LabeledStmt:
			scanBlock(pass, []ast.Stmt{s.Stmt}, state)
		default:
			scanStmtCalls(pass, stmt, state)
		}
	}
}

// scanStmtCalls inspects one straight-line statement: reports calls
// on consumed handles, registers new consumptions, and revives
// handles that are reassigned.
func scanStmtCalls(pass *analysis.Pass, stmt ast.Stmt, state map[string]consumption) {
	// Reassignment revives the handle (h = futures.NewThread(...)),
	// including handles reached through the reassigned variable
	// (a = other revives a.team).
	if as, ok := stmt.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			expr := types.ExprString(ast.Unparen(lhs))
			for k := range state {
				_, kexpr, _ := strings.Cut(k, "|")
				if kexpr == expr || strings.HasPrefix(kexpr, expr+".") {
					delete(state, k)
				}
			}
		}
	}
	ast.Inspect(stmt, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			scanBlock(pass, lit.Body.List, map[string]consumption{})
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.Callee(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		recv := analysis.ReceiverNamed(fn)
		if recv == nil {
			return true
		}
		classKey := recvClassKey(recv)
		class, tracked := classes[classKey]
		if !tracked {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		key := classKey + "|" + types.ExprString(ast.Unparen(sel.X))
		if prev, dead := state[key]; dead && class.dead[fn.Name()] {
			diag := analysis.Diagnostic{
				Pos:      call.Pos(),
				Analyzer: pass.Analyzer.Name,
				Message: fmt.Sprintf(
					"%s called on %q, which was already %s by the %s at %s",
					fn.Name(), types.ExprString(sel.X), prev.class.verb,
					prev.method, prev.pos),
			}
			// Redundant Close/Detach as a standalone statement is
			// pure dead code: offer to delete it.
			if es, ok := stmt.(*ast.ExprStmt); ok && es.X == call &&
				class.consume[fn.Name()] && fn.Name() == prev.method {
				diag.SuggestedFixes = []analysis.SuggestedFix{{
					Message: fmt.Sprintf("delete redundant %s", fn.Name()),
					TextEdits: []analysis.TextEdit{{
						Pos: stmt.Pos(), End: stmt.End(),
					}},
				}}
			}
			pass.Report(diag)
			return true
		}
		if class.consume[fn.Name()] {
			state[key] = consumption{
				pos:    pass.Fset.Position(call.Pos()).String(),
				method: fn.Name(),
				class:  class,
			}
		}
		return true
	})
}

// scanLits scans function-literal bodies found under n with fresh
// state.
func scanLits(pass *analysis.Pass, n ast.Node) {
	ast.Inspect(n, func(nd ast.Node) bool {
		if lit, ok := nd.(*ast.FuncLit); ok {
			scanBlock(pass, lit.Body.List, map[string]consumption{})
			return false
		}
		return true
	})
}

// recvClassKey renders the receiver's named type as "pkgPath.Name".
func recvClassKey(named *types.Named) string {
	obj := named.Origin().Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func copyState(state map[string]consumption) map[string]consumption {
	out := make(map[string]consumption, len(state))
	for k, v := range state {
		out[k] = v
	}
	return out
}
