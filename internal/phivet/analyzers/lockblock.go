package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"phiopenssl/internal/phivet/analysis"
)

// LockBlock flags potentially-blocking operations performed while a
// sync.Mutex/RWMutex is held: channel sends and receives, selects without
// a default clause, ranging over a channel, sync.WaitGroup.Wait, and the
// stack's known blocking calls (SubmitWork, which blocks on card-queue
// backpressure; DoWork, which blocks on the result; Submit; and the
// work-stealing seam: the Redispatch hook, phiserve's offerSteal wrapper
// around it, and Adopt). This is the deadlock class behind the
// head-of-line fix of the multi-card change: the scheduler blocked on a
// full dispatch queue while owning state the drainers needed. A lock
// held across a blocking operation couples the lock's critical section
// to another goroutine's progress — the shape every deadlock in this
// codebase has taken.
//
// The steal seam is the card queue's version of it: the fleet's hook
// reads the donor card's Load and calls a sibling's Adopt, which takes
// the sibling's card lock. A card lock held across offerSteal is a
// self-deadlock once Load or a seal needs it, and one held across Adopt
// orders two card locks against a sibling doing the same.
//
// The analysis is intraprocedural and flow-naive on purpose: it tracks
// Lock/RLock..Unlock/RUnlock spans down straight-line statement lists,
// follows into if/for/switch bodies, and treats `defer mu.Unlock()` as
// holding to function end. Function literals and go statements start
// fresh (their bodies run elsewhere or later). It does not follow calls,
// so it cannot see a blocking call through a wrapper: that is why
// offerSteal is listed by name beside the Redispatch field it calls.
// Non-blocking shapes are deliberately exempt:
// TrySubmit-style names, and selects with a default clause (including the
// sends/receives inside their comm clauses — those are attempts, not
// waits).
var LockBlock = &analysis.Analyzer{
	Name: "lockblock",
	Doc:  "no channel operation or blocking Submit/SubmitWork/DoWork/Redispatch/offerSteal/Adopt while a mutex is held",
	Run:  runLockBlock,
}

// blockingCalls are method/function names that block on another
// goroutine's progress. Wait is handled separately (type-gated to
// sync.WaitGroup so condition variables and errgroups stay out of scope).
var blockingCalls = map[string]bool{
	"Submit":     true,
	"SubmitWork": true,
	"DoWork":     true,
	"Redispatch": true,
	"offerSteal": true,
	"Adopt":      true,
}

// lockState maps a mutex expression's source text ("s.mu") to the
// position where it was locked.
type lockState map[string]token.Pos

func (ls lockState) clone() lockState {
	c := make(lockState, len(ls))
	for k, v := range ls {
		c[k] = v
	}
	return c
}

// any returns an arbitrary held mutex (for the diagnostic message).
func (ls lockState) any() (string, token.Pos) {
	for k, v := range ls {
		return k, v
	}
	return "", token.NoPos
}

func runLockBlock(pass *analysis.Pass) error {
	lb := &lockBlock{pass: pass}
	pass.EachFunc(func(_ *ast.File, decl *ast.FuncDecl) {
		lb.stmts(decl.Body.List, lockState{})
	})
	return nil
}

type lockBlock struct {
	pass *analysis.Pass
}

// stmts walks a statement list, threading the held-lock state through.
func (lb *lockBlock) stmts(list []ast.Stmt, held lockState) {
	for _, s := range list {
		lb.stmt(s, held)
	}
}

// stmt processes one statement: checks it for blocking operations under
// the current held set, then applies its lock/unlock effects.
func (lb *lockBlock) stmt(s ast.Stmt, held lockState) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		lb.scan(s.X, held)
		lb.lockEffect(s.X, held)
	case *ast.SendStmt:
		if len(held) > 0 {
			lb.report(s.Arrow, "channel send", held)
		}
		lb.scan(s.Value, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			lb.scan(e, held)
		}
		for _, e := range s.Lhs {
			lb.scan(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			lb.scan(e, held)
		}
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock to function end: no state
		// change. A deferred blocking call runs at return, outside this
		// span's certainty — out of scope.
	case *ast.GoStmt:
		// Runs on another goroutine; locks held here are not held there.
	case *ast.IfStmt:
		if s.Init != nil {
			lb.stmt(s.Init, held)
		}
		lb.scan(s.Cond, held)
		lb.stmts(s.Body.List, held.clone())
		if s.Else != nil {
			lb.stmt(s.Else, held.clone())
		}
	case *ast.ForStmt:
		if s.Init != nil {
			lb.stmt(s.Init, held)
		}
		if s.Cond != nil {
			lb.scan(s.Cond, held)
		}
		lb.stmts(s.Body.List, held.clone())
	case *ast.RangeStmt:
		if len(held) > 0 && lb.isChannel(s.X) {
			lb.report(s.For, "range over channel", held)
		}
		lb.scan(s.X, held)
		lb.stmts(s.Body.List, held.clone())
	case *ast.BlockStmt:
		lb.stmts(s.List, held)
	case *ast.SwitchStmt:
		if s.Init != nil {
			lb.stmt(s.Init, held)
		}
		if s.Tag != nil {
			lb.scan(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				lb.stmts(cc.Body, held.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				lb.stmts(cc.Body, held.clone())
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if len(held) > 0 && !hasDefault {
			lb.report(s.Select, "select without default", held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				// The comm operations themselves are non-blocking attempts
				// when a default exists, and already covered by the select
				// diagnostic when it does not; only the bodies need walking.
				lb.stmts(cc.Body, held.clone())
			}
		}
	case *ast.LabeledStmt:
		lb.stmt(s.Stmt, held)
	}
}

// scan inspects an expression tree (of a simple statement) for blocking
// operations, skipping function literals — their bodies execute under
// whatever locks their eventual caller holds, not these.
func (lb *lockBlock) scan(e ast.Expr, held lockState) {
	if len(held) == 0 || e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				lb.report(n.OpPos, "channel receive", held)
			}
		case *ast.CallExpr:
			if sel, ok := analysis.MethodCall(n); ok {
				name := sel.Sel.Name
				if blockingCalls[name] {
					lb.report(n.Pos(), "blocking "+name+" call", held)
				}
				if name == "Wait" && lb.pass.ReceiverNamed(sel, "sync", "WaitGroup") {
					lb.report(n.Pos(), "sync.WaitGroup.Wait", held)
				}
			}
		}
		return true
	})
}

// lockEffect applies a statement-level `x.Lock()` / `x.Unlock()` to the
// held set, type-gated to sync mutexes.
func (lb *lockBlock) lockEffect(e ast.Expr, held lockState) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := analysis.MethodCall(call)
	if !ok || !lb.isMutex(sel) {
		return
	}
	key := analysis.ExprString(sel.X)
	switch sel.Sel.Name {
	case "Lock", "RLock":
		held[key] = call.Pos()
	case "Unlock", "RUnlock":
		delete(held, key)
	}
}

// isMutex reports whether the selector's receiver is a sync.Mutex or
// sync.RWMutex (directly, or via the promoted methods of an embedded
// one — the method set resolves to the sync type either way).
func (lb *lockBlock) isMutex(sel *ast.SelectorExpr) bool {
	return lb.pass.ReceiverNamed(sel, "sync", "Mutex") ||
		lb.pass.ReceiverNamed(sel, "sync", "RWMutex")
}

// isChannel reports whether e has channel type.
func (lb *lockBlock) isChannel(e ast.Expr) bool {
	tv, ok := lb.pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

func (lb *lockBlock) report(pos token.Pos, what string, held lockState) {
	mu, at := held.any()
	lb.pass.Reportf(pos,
		"%s while holding %s (locked at %s); a lock held across a blocking operation couples the critical section to another goroutine's progress — the PR 5 head-of-line deadlock class",
		what, mu, lb.pass.Fset.Position(at))
}
