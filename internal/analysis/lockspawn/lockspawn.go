// Package lockspawn reports task submission or joining performed
// while a sync.Mutex or sync.RWMutex is held.
//
// Contract encoded: the work-stealing runtime uses help-first joins —
// a goroutine that submits work (Pool.Run/RunCtx, Ctx.Spawn/Sync,
// ForDAC/ForEach, the task models' TaskRunCtx and
// TaskScope.Spawn/Sync) may execute *stolen* tasks on its own stack
// while it waits for its subtree to drain. If the submitter holds a
// mutex and a stolen task (or a task in the joined subtree) takes the
// same mutex, the program deadlocks: the lock owner is busy running
// the very task that waits for the lock. Blocking inside stealable
// tasks is the second dominant bug class of Kulkarni & Lumsdaine's
// many-tasking survey; this analyzer keeps it out of the submission
// side.
//
// The check is lexical and per-function: a Lock/RLock on a
// sync.(RW)Mutex opens a held region that a matching non-deferred
// Unlock/RUnlock closes; a deferred unlock holds until the end of the
// function. Submission calls inside a held region — including inside
// function literals defined there, which the runtimes typically
// invoke synchronously — are reported.
package lockspawn

import (
	"go/ast"
	"go/token"
	"go/types"

	"threading/internal/analysis"
	"threading/internal/analysis/interproc"
)

// Analyzer is the lockspawn pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockspawn",
	Doc: "report work-stealing submission/join calls made while a " +
		"sync.Mutex or sync.RWMutex is held (deadlock under help-first joins)",
	Run: run,
}

// submitters lists the runtime entry points that may run stolen tasks
// on the caller's stack, keyed by package path then receiver type.
var submitters = map[string]map[string]map[string]bool{
	"threading/internal/worksteal": {
		"Pool": {"Run": true, "RunCtx": true},
		"Ctx":  {"Spawn": true, "Sync": true, "ForDAC": true, "ForEach": true},
	},
	"threading/internal/models": {
		"Model":     {"TaskRunCtx": true},
		"TaskScope": {"Spawn": true, "Sync": true},
	},
}

func isSubmitter(f *types.Func) bool {
	recv := analysis.ReceiverNamed(f)
	if recv == nil {
		return false
	}
	obj := recv.Origin().Obj()
	if obj.Pkg() == nil {
		return false
	}
	byType, ok := submitters[obj.Pkg().Path()]
	if !ok {
		return false
	}
	return byType[obj.Name()][f.Name()]
}

// lockMethod classifies a call as acquiring or releasing a
// sync.(RW)Mutex and returns the key identifying the lock
// expression. Thin wrapper over interproc.LockOp, which lockorder
// and racecapture share.
func lockMethod(pass *analysis.Pass, call *ast.CallExpr) (key string, acquire, release bool) {
	op, _, display := interproc.LockOp(pass.TypesInfo, pass.Pkg, call)
	switch op {
	case interproc.LockAcquire:
		return display, true, false
	case interproc.LockRelease:
		return display, false, true
	}
	return "", false, false
}

type heldLock struct {
	key string
	pos token.Pos
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	var held []heldLock
	analysis.WithStack(body, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, acquire, release := lockMethod(pass, call); acquire || release {
			deferred := len(stack) > 0 && interproc.IsDeferredCall(stack[len(stack)-1], call)
			switch {
			case acquire:
				held = append(held, heldLock{key: key, pos: call.Pos()})
			case release && !deferred:
				for i := len(held) - 1; i >= 0; i-- {
					if held[i].key == key {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			}
			return true
		}
		if len(held) == 0 {
			return true
		}
		callee := analysis.Callee(pass.TypesInfo, call)
		if callee == nil || !isSubmitter(callee) {
			return true
		}
		h := held[len(held)-1]
		pass.Reportf(call.Pos(),
			"%s called while %q is held (Lock at %s): help-first joins may execute stolen tasks on this goroutine and retake the lock",
			analysis.FuncName(callee), h.key, pass.Fset.Position(h.pos))
		return true
	})
}
