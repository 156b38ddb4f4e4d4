package analysis

import (
	"go/ast"
	"go/types"
)

// LockOrder checks the storage cache's documented locking discipline
// (DESIGN.md §7): the three lock levels are always acquired in the
// partial order
//
//	per-handle (cacheFile.mu) → per-block (cacheBlock.bmu) → cache-wide (Cache.mu)
//
// levels may be skipped but never revisited upward, and when several
// per-block locks are held at once (batched fills and flushes, §10–
// §11) they must be taken in ascending block-index order — the
// deadlock rule every multi-block path shares. The check walks each
// function's statements tracking the held set through branches, and
// propagates a transitive "may acquire" summary over the package call
// graph so an out-of-order acquisition hidden one call down is still
// caught.
//
// Ascending-order evidence for simultaneous per-block locks is
// structural: the acquiring loop iterates an ascending index
// (`for idx := first; idx <= last; idx++`), or the function sorted its
// batch (sort.Slice, slices.SortFunc and kin) before locking. Anything
// else is flagged.
var LockOrder = &Analyzer{
	Name:     "lockorder",
	Doc:      "cache locks must follow the per-handle → per-block → cache-wide order, per-block batches in ascending index order",
	Packages: []string{"internal/store"},
	Run:      runLockOrder,
}

// Lock ranks, keyed by "OwnerType.field". Rank order is acquisition
// order; higher rank must never be held when a lower rank is taken.
var lockRanks = map[string]int{
	"cacheFile.mu":   1,
	"cacheBlock.bmu": 2,
	"Cache.mu":       3,
}

var lockRankName = map[int]string{
	1: "per-handle (cacheFile.mu)",
	2: "per-block (cacheBlock.bmu)",
	3: "cache-wide (Cache.mu)",
}

type heldLock struct {
	rank int
	key  string // source text of the lock expression, e.g. "b.bmu"
}

type lockWalker struct {
	pass      *Pass
	summaries map[*types.Func]map[int]bool
	// function-scoped evidence for ascending batch locking
	sawSortSlice bool
	ascendingFor int // depth of enclosing ascending-index for loops
}

func runLockOrder(pass *Pass) {
	w := &lockWalker{pass: pass, summaries: lockSummaries(pass)}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			w.sawSortSlice = containsSortSlice(pass, decl.Body)
			w.ascendingFor = 0
			// Empty, not nil: nil means "this path returned".
			w.walkStmts(decl.Body.List, []heldLock{})
		}
	}
}

// rankOfLockExpr resolves x in `x.Lock()` to its configured rank (0 =
// unranked) and a stable key for held-set tracking.
func (w *lockWalker) rankOfLockExpr(x ast.Expr) (int, string) {
	sel, ok := ast.Unparen(x).(*ast.SelectorExpr)
	if !ok {
		return 0, ""
	}
	s, ok := w.pass.Info.Selections[sel]
	if !ok {
		return 0, ""
	}
	recv := s.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return 0, ""
	}
	rank := lockRanks[named.Obj().Name()+"."+sel.Sel.Name]
	return rank, lockExprKey(sel)
}

func lockExprKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return lockExprKey(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return lockExprKey(e.X) + "[" + lockExprKey(e.Index) + "]"
	default:
		return "?"
	}
}

// lockMethod splits a call into (lock expression, method) when it is a
// mutex Lock/Unlock-family call.
func lockMethod(call *ast.CallExpr) (ast.Expr, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock", "Unlock", "RUnlock":
		return sel.X, sel.Sel.Name, true
	}
	return nil, "", false
}

// lockSummaries computes, for every function in the package, the set
// of lock ranks it may acquire — directly or through same-package
// calls (fixpoint over the static call graph).
func lockSummaries(pass *Pass) map[*types.Func]map[int]bool {
	direct := make(map[*types.Func]map[int]bool)
	calls := make(map[*types.Func][]*types.Func)
	w := &lockWalker{pass: pass}
	var fns []*types.Func
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			fn, ok := pass.objectOf(decl.Name).(*types.Func)
			if !ok {
				continue
			}
			fns = append(fns, fn)
			direct[fn] = make(map[int]bool)
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if x, m, ok := lockMethod(call); ok && (m == "Lock" || m == "RLock" || m == "TryLock" || m == "TryRLock") {
					if rank, _ := w.rankOfLockExpr(x); rank != 0 {
						direct[fn][rank] = true
					}
					return true
				}
				if callee := pass.calleeFunc(call); callee != nil && callee.Pkg() == pass.Pkg {
					calls[fn] = append(calls[fn], callee)
				}
				return true
			})
		}
	}
	// Fixpoint: fold callee ranks into callers until stable.
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			for _, callee := range calls[fn] {
				for r := range direct[callee] {
					if !direct[fn][r] {
						direct[fn][r] = true
						changed = true
					}
				}
			}
		}
	}
	return direct
}

// walkStmts walks a statement list with the current held set,
// returning the resulting held set, or nil when every path through the
// list terminates (return/continue/break/panic). Nil is reserved for
// that: "nothing held" is an empty, non-nil set.
func (w *lockWalker) walkStmts(stmts []ast.Stmt, held []heldLock) []heldLock {
	for _, s := range stmts {
		held = w.walkStmt(s, held)
		if held == nil {
			return nil
		}
	}
	return held
}

func cloneHeld(held []heldLock) []heldLock {
	return append([]heldLock{}, held...)
}

// mergeHeld unions two branch outcomes; nil (terminated path) defers
// to the other.
func mergeHeld(a, b []heldLock) []heldLock {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := cloneHeld(a)
	for _, l := range b {
		found := false
		for _, m := range out {
			if m.key == l.key {
				found = true
				break
			}
		}
		if !found {
			out = append(out, l)
		}
	}
	return out
}

// afterLoop is the held set after a loop. Locks the body takes stay
// held, as if the loop ran at least once. A lock held at entry that the
// body releases on every path is released: that is the unlock loop over
// the batch an earlier loop locked, and a zero-iteration unlock loop
// had no batch to release. A body that never falls through leaves the
// entry set.
func afterLoop(entry, exit []heldLock) []heldLock {
	if exit == nil {
		return entry
	}
	return exit
}

func maxRank(held []heldLock) (int, string) {
	best, key := 0, ""
	for _, l := range held {
		if l.rank >= best {
			best, key = l.rank, l.key
		}
	}
	return best, key
}

func (w *lockWalker) walkStmt(s ast.Stmt, held []heldLock) []heldLock {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		w.scanCalls(s, &held)
		return nil
	case *ast.BranchStmt: // break/continue/goto end this path
		return nil
	case *ast.ExprStmt, *ast.AssignStmt, *ast.DeclStmt, *ast.SendStmt, *ast.IncDecStmt, *ast.GoStmt:
		w.scanCalls(s, &held)
		return held
	case *ast.DeferStmt:
		// A deferred unlock keeps the lock held for the rest of the
		// walk — which is exactly the ordering model we want. Deferred
		// function literals are scanned only for direct unlocks.
		return held
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		w.scanCalls(s.Cond, &held)
		then := w.walkStmts(s.Body.List, cloneHeld(held))
		var els []heldLock
		if s.Else != nil {
			els = w.walkStmt(s.Else, cloneHeld(held))
		} else {
			els = held
		}
		return mergeHeld(then, els)
	case *ast.BlockStmt:
		return w.walkStmts(s.List, held)
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			w.scanCalls(s.Cond, &held)
		}
		asc := isAscendingFor(s)
		if asc {
			w.ascendingFor++
		}
		entry := cloneHeld(held)
		exit := w.walkStmts(s.Body.List, cloneHeld(held))
		if asc {
			w.ascendingFor--
		}
		w.checkLoopAccumulation(s, entry, exit, asc)
		return afterLoop(entry, exit)
	case *ast.RangeStmt:
		entry := cloneHeld(held)
		exit := w.walkStmts(s.Body.List, cloneHeld(held))
		w.checkLoopAccumulation(s, entry, exit, false)
		return afterLoop(entry, exit)
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		return w.walkClauses(s.Body, held, false)
	case *ast.TypeSwitchStmt:
		return w.walkClauses(s.Body, held, false)
	case *ast.SelectStmt:
		return w.walkClauses(s.Body, held, true)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, held)
	default:
		return held
	}
}

// walkClauses walks a switch or select body. The statement terminates
// only when every clause does and no path skips them all: a switch
// without a default falls through when no case matches (a select
// without one blocks until some clause runs).
func (w *lockWalker) walkClauses(body *ast.BlockStmt, held []heldLock, isSelect bool) []heldLock {
	var merged []heldLock
	hasDefault := false
	for _, c := range body.List {
		var list []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			hasDefault = hasDefault || c.List == nil
			list = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				w.walkStmt(c.Comm, cloneHeld(held))
			}
			list = c.Body
		}
		if out := w.walkStmts(list, cloneHeld(held)); out != nil {
			merged = mergeHeld(merged, out)
		}
	}
	if (isSelect || hasDefault) && len(body.List) > 0 {
		return merged // nil: every clause terminated
	}
	return mergeHeld(merged, held)
}

// checkLoopAccumulation flags per-block locks that survive a loop
// iteration (the batched-locking pattern) without ascending-order
// evidence.
func (w *lockWalker) checkLoopAccumulation(loop ast.Node, entry, exit []heldLock, ascending bool) {
	if exit == nil {
		return
	}
	for _, l := range exit {
		if l.rank != 2 {
			continue
		}
		pre := false
		for _, e := range entry {
			if e.key == l.key {
				pre = true
				break
			}
		}
		if pre {
			continue
		}
		if ascending || w.sawSortSlice {
			continue
		}
		w.pass.Reportf(loop.Pos(),
			"loop accumulates per-block locks (%s) without ascending-index evidence: sort the batch by block index (sort.Slice) or iterate an ascending index before locking (DESIGN.md §7)", l.key)
	}
}

// containsSortSlice reports whether the function body sorts a batch
// with sort.Slice/sort.SliceStable/sort.Sort or their slices-package
// twins — the sorted-batch evidence for taking several per-block locks
// at once.
func containsSortSlice(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			switch pass.calleeName(call) {
			case "sort.Slice", "sort.SliceStable", "sort.Sort",
				"slices.Sort", "slices.SortFunc", "slices.SortStableFunc":
				found = true
			}
		}
		return true
	})
	return found
}

// isAscendingFor recognizes `for i := lo; i <= hi; i++` shapes.
func isAscendingFor(f *ast.ForStmt) bool {
	inc, ok := f.Post.(*ast.IncDecStmt)
	return ok && inc.Tok.String() == "++"
}

// scanCalls inspects a node for lock events and summarized calls,
// mutating the held set through the pointer.
func (w *lockWalker) scanCalls(n ast.Node, held *[]heldLock) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false // separate execution context
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if x, method, ok := lockMethod(call); ok {
			rank, key := w.rankOfLockExpr(x)
			if rank == 0 {
				return true
			}
			switch method {
			case "Lock", "RLock", "TryLock", "TryRLock":
				w.acquire(call, rank, key, held)
			case "Unlock", "RUnlock":
				w.release(key, held)
			}
			return true
		}
		if callee := w.pass.calleeFunc(call); callee != nil && callee.Pkg() == w.pass.Pkg {
			w.checkSummarizedCall(call, callee, *held)
		}
		return true
	})
}

func (w *lockWalker) acquire(call *ast.CallExpr, rank int, key string, held *[]heldLock) {
	hi, hiKey := maxRank(*held)
	switch {
	case rank < hi:
		w.pass.Reportf(call.Pos(),
			"acquires %s while holding %s: violates the per-handle → per-block → cache-wide order (DESIGN.md §7)",
			lockRankName[rank], lockRankName[hi])
	case rank == hi && rank != 0:
		if rank == 2 {
			// A second simultaneous per-block lock needs ascending-
			// index evidence.
			if w.ascendingFor == 0 && !w.sawSortSlice {
				w.pass.Reportf(call.Pos(),
					"acquires a second per-block lock (%s while holding %s) without ascending-index evidence: sort the batch by block index first (DESIGN.md §7)", key, hiKey)
			}
		} else {
			w.pass.Reportf(call.Pos(),
				"reacquires %s while already holding %s: self-deadlock (DESIGN.md §7)", lockRankName[rank], hiKey)
		}
	}
	*held = append(*held, heldLock{rank: rank, key: key})
}

func (w *lockWalker) release(key string, held *[]heldLock) {
	h := *held
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].key == key {
			*held = append(h[:i:i], h[i+1:]...)
			return
		}
	}
}

func (w *lockWalker) checkSummarizedCall(call *ast.CallExpr, callee *types.Func, held []heldLock) {
	hi, hiKey := maxRank(held)
	if hi == 0 {
		return
	}
	sum := w.summaries[callee]
	for r := range sum {
		if r < hi {
			w.pass.Reportf(call.Pos(),
				"calls %s, which may acquire %s, while holding %s (%s): violates the lock order one call down (DESIGN.md §7)",
				callee.Name(), lockRankName[r], lockRankName[hi], hiKey)
		}
	}
}
