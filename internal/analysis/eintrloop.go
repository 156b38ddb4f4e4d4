package analysis

import (
	"go/ast"
	"regexp"
	"strings"
)

// EintrLoop checks that every raw syscall submission on an I/O path
// sits inside an EINTR-aware retry loop. The kernel may interrupt
// pread/pwrite/preadv/pwritev/readv/sendfile at any signal; Go's runtime
// retries its own wrappers, but the storage datapath and the client's
// response receive issue these through syscall.Syscall/Syscall6
// directly (internal/sysvec's preadv/pwritev/readv, store's
// stream_linux.go — DESIGN.md §2, §10–§11), where a missed EINTR turns
// a routine signal into a spurious I/O error and a missed
// short-transfer continuation silently drops bytes.
//
// Rule: a call to syscall.Syscall*/RawSyscall*, or to the syscall
// package's own I/O wrappers (Pread, Pwrite, Sendfile), must be
// lexically inside a for loop whose body mentions syscall.EINTR (the
// retry decision). One-shot setup traps — *_setup, mmap-class calls —
// are exempt by trap-name pattern: they are not restartable
// submissions. A function literal starts a fresh scope: a loop outside
// the literal cannot be the retry loop for a syscall inside it.
var EintrLoop = &Analyzer{
	Name: "eintrloop",
	Doc:  "raw syscall I/O submissions must sit inside an EINTR retry loop with short-transfer continuation",
	Run:  runEintrLoop,
}

var (
	rawSyscallFns = map[string]bool{
		"syscall.Syscall":     true,
		"syscall.Syscall6":    true,
		"syscall.RawSyscall":  true,
		"syscall.RawSyscall6": true,
	}
	wrappedIOFns = map[string]bool{
		"syscall.Pread":    true,
		"syscall.Pwrite":   true,
		"syscall.Sendfile": true,
	}
	// Traps that run once and either succeed or fail for good; a retry
	// loop around them would be wrong, not missing.
	exemptTrap = regexp.MustCompile(`(?i)(setup|register|mmap|munmap|close|openat|unlink|fstat|ftruncate)`)
)

func runEintrLoop(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if decl, ok := n.(*ast.FuncDecl); ok && decl.Body != nil {
				walkEintr(pass, decl.Body, nil)
				return false
			}
			return true
		})
	}
}

// walkEintr walks n carrying the stack of enclosing for loops.
func walkEintr(pass *Pass, n ast.Node, loops []*ast.ForStmt) {
	switch n := n.(type) {
	case *ast.ForStmt:
		loops = append(loops, n)
	case *ast.FuncLit:
		loops = nil
	case *ast.CallExpr:
		checkEintrCall(pass, loops, n)
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil || m == n {
			return m == n
		}
		walkEintr(pass, m, loops)
		return false
	})
}

func checkEintrCall(pass *Pass, loops []*ast.ForStmt, call *ast.CallExpr) {
	name := pass.calleeName(call)
	raw := rawSyscallFns[name]
	if !raw && !wrappedIOFns[name] {
		return
	}
	if raw && len(call.Args) > 0 && exemptTrap.MatchString(exprText(call.Args[0])) {
		return
	}
	for _, f := range loops {
		if mentionsEINTR(f.Body) {
			return
		}
	}
	short := name[strings.LastIndexByte(name, '.')+1:]
	pass.Reportf(call.Pos(),
		"raw %s submission outside an EINTR retry loop: wrap it in a for loop that retries syscall.EINTR and continues short transfers (DESIGN.md §10)", short)
}

// mentionsEINTR reports whether the loop body consults syscall.EINTR
// (directly or through an errno helper named for it).
func mentionsEINTR(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if strings.Contains(strings.ToLower(id.Name), "eintr") {
				found = true
			}
		}
		return true
	})
	return found
}

// exprText renders a small expression (trap arguments) as source-ish
// text for pattern matching.
func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprText(e.Fun)
	case *ast.ParenExpr:
		return exprText(e.X)
	default:
		return ""
	}
}
