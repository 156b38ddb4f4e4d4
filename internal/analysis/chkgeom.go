package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ChkGeom checks that geometry arriving off the wire is validated
// before arithmetic touches it. PR 3 fixed a remote panic built from
// exactly this gap: 64 region lengths that each passed Validate still
// wrapped int64 when summed with naked +, and the negative total
// reached wire.GetBuf (DESIGN.md §7 bugfix notes). The rule it left
// behind: int64 sums over wire-derived lengths and offsets flow
// through the checked helpers (ioseg.TotalLengthChecked, checkExtent,
// checkGeometry, …), never through unguarded operators.
//
// Model, per function in the daemon and storage packages: every
// integer field read from an unmarshalled wire request struct
// (wire.*Req locals and parameters) is tainted. A taint is cleared by
// a bounds comparison mentioning it, or by passing it — or its whole
// struct — to a checked helper. Arithmetic (+, -, *) on a still-
// tainted value, or an int() narrowing of one, is a violation.
var ChkGeom = &Analyzer{
	Name:     "chkgeom",
	Doc:      "wire-derived lengths/offsets must pass a checked helper or bounds guard before arithmetic",
	Packages: []string{"internal/iod", "internal/store"},
	Run:      runChkGeom,
}

// geomSanitizers are the checked helpers: passing a tainted value (or
// its carrier struct) into one validates it.
var geomSanitizers = map[string]bool{
	"(pvfs/internal/ioseg.List).Validate":           true,
	"(pvfs/internal/ioseg.List).TotalLengthChecked": true,
	"(pvfs/internal/ioseg.List).CoalesceRuns":       true,
	"(pvfs/internal/ioseg.List).CoalescePacked":     true,
	"pvfs/internal/datatype.CheckPattern":           true,
}

// geomSanitizerNames matches in-package helpers by bare name, so the
// rule covers helpers the analyzer's config cannot know by path
// (checkExtent, checkGeometry, checkSpans, decodePattern,
// checkVector ...).
func isGeomSanitizerName(name string) bool {
	short := name[strings.LastIndexByte(name, '.')+1:]
	lower := strings.ToLower(short)
	return strings.HasPrefix(lower, "check") ||
		strings.Contains(lower, "checked") ||
		lower == "decodepattern" || lower == "validate"
}

func runChkGeom(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			decl, ok := n.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				return true
			}
			// The checked helpers themselves are the validation layer.
			if isGeomSanitizerName(decl.Name.Name) {
				return false
			}
			checkGeomFunc(pass, decl)
			return false
		})
	}
}

// wireReqVar reports whether obj is a variable of a wire request type
// (wire.XxxReq value or pointer).
func wireReqVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	t := v.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	o := named.Obj()
	return o.Pkg() != nil &&
		strings.HasSuffix(o.Pkg().Path(), "internal/wire") &&
		strings.HasSuffix(o.Name(), "Req")
}

// taintKey names one tainted value: a field of a wire request variable
// ("body.Want") or a local copied from one.
type taintKey string

func checkGeomFunc(pass *Pass, decl *ast.FuncDecl) {
	// sanitized accumulates cleared taints in source order; a whole-var
	// entry ("body") clears every field of that carrier.
	sanitized := map[taintKey]bool{}

	keyOf := func(e ast.Expr) (taintKey, bool) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		base := sel.X
		// Look through one embedded-struct hop (body.ReadDatatypeReq.Want).
		if inner, ok := ast.Unparen(base).(*ast.SelectorExpr); ok {
			base = inner.X
		}
		id, ok := ast.Unparen(base).(*ast.Ident)
		if !ok || !wireReqVar(pass.objectOf(id)) {
			return "", false
		}
		t, ok := pass.Info.Types[e]
		if !ok {
			return "", false
		}
		basic, ok := t.Type.Underlying().(*types.Basic)
		if !ok || basic.Info()&types.IsInteger == 0 {
			return "", false
		}
		return taintKey(id.Name + "." + sel.Sel.Name), true
	}
	carrierOf := func(e ast.Expr) (taintKey, bool) {
		x := ast.Unparen(e)
		if u, ok := x.(*ast.UnaryExpr); ok && u.Op == token.AND {
			x = ast.Unparen(u.X)
		}
		if sel, ok := x.(*ast.SelectorExpr); ok { // &body.EmbeddedReq
			x = ast.Unparen(sel.X)
		}
		id, ok := x.(*ast.Ident)
		if !ok || !wireReqVar(pass.objectOf(id)) {
			return "", false
		}
		return taintKey(id.Name), true
	}
	tainted := func(e ast.Expr) (taintKey, bool) {
		k, ok := keyOf(e)
		if !ok {
			return "", false
		}
		if sanitized[k] {
			return "", false
		}
		carrier, _, _ := strings.Cut(string(k), ".")
		if sanitized[taintKey(carrier)] {
			return "", false
		}
		return k, true
	}
	sanitize := func(e ast.Expr) {
		if k, ok := keyOf(e); ok {
			sanitized[k] = true
		}
		if c, ok := carrierOf(e); ok {
			sanitized[c] = true
		}
	}

	// The walk visits statements in source order; guards and helper
	// calls sanitize as they are met, violations report as they are
	// met. Path precision is deliberately coarse — a guard anywhere
	// above the use counts — because the invariant is "validated
	// before used", not full flow-sensitivity.
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			// Any comparison in the condition sanitizes its operands.
			ast.Inspect(n.Cond, func(m ast.Node) bool {
				if be, ok := m.(*ast.BinaryExpr); ok && isComparison(be.Op) {
					sanitize(be.X)
					sanitize(be.Y)
				}
				return true
			})
		case *ast.SwitchStmt:
			if n.Tag != nil {
				sanitize(n.Tag)
			}
		case *ast.CaseClause:
			for _, e := range n.List {
				ast.Inspect(e, func(m ast.Node) bool {
					if be, ok := m.(*ast.BinaryExpr); ok && isComparison(be.Op) {
						sanitize(be.X)
						sanitize(be.Y)
					}
					return true
				})
			}
		case *ast.CallExpr:
			name := pass.calleeName(n)
			if geomSanitizers[name] || (name != "" && isGeomSanitizerName(name)) {
				for _, arg := range n.Args {
					sanitize(arg)
				}
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					sanitize(sel.X) // method receiver: body.Regions.Validate()
				}
				return true
			}
			// int() narrowing of a tainted value.
			if isIntConversion(pass, n) && len(n.Args) == 1 {
				if k, bad := tainted(n.Args[0]); bad {
					pass.Reportf(n.Pos(),
						"int conversion of unvalidated wire-derived %s; bounds-check it or use a checked helper first (DESIGN.md §7)", k)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD || n.Op == token.SUB || n.Op == token.MUL {
				for _, e := range []ast.Expr{n.X, n.Y} {
					if k, bad := tainted(e); bad {
						pass.Reportf(n.Pos(),
							"naked %s on unvalidated wire-derived %s; route the sum through a checked helper such as ioseg.TotalLengthChecked or checkExtent (DESIGN.md §7)", n.Op, k)
					}
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN || n.Tok == token.MUL_ASSIGN {
				for _, e := range append(append([]ast.Expr{}, n.Lhs...), n.Rhs...) {
					if k, bad := tainted(e); bad {
						pass.Reportf(n.Pos(),
							"naked %s on unvalidated wire-derived %s; route the sum through a checked helper such as ioseg.TotalLengthChecked (DESIGN.md §7)", n.Tok, k)
					}
				}
			}
		}
		return true
	})
}

func isComparison(op token.Token) bool {
	switch op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
		return true
	}
	return false
}

// isIntConversion reports whether call is a conversion to a
// machine-width int type (the narrowing that turned a wrapped sum into
// a negative GetBuf argument).
func isIntConversion(pass *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	tn, ok := pass.objectOf(id).(*types.TypeName)
	if !ok {
		return false
	}
	basic, ok := tn.Type().Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch basic.Kind() {
	case types.Int, types.Int32, types.Uint32, types.Int16, types.Uint16, types.Int8, types.Uint8:
		return true
	}
	return false
}
