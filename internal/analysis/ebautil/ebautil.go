// Package ebautil holds the object-matching helpers shared by the
// ebavet analyzers. The analyzers identify the repo's contract-carrying
// functions by (package-path suffix, name) pairs so the same matchers
// work against the real tree (import paths rooted at "repro") and
// against analyzertest fixtures (import paths rooted wherever the
// fixture tree mounts them).
package ebautil

import (
	"go/ast"
	"go/types"
	"strings"
)

// PathHasSuffix reports whether the import path is suffix, or ends with
// "/"+suffix. Matching whole path segments keeps "internal/graph" from
// matching "internal/subgraph".
func PathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// FuncObj resolves the *types.Func a call expression invokes, through
// parenthesization and method selections. It returns nil for calls to
// function-typed variables, conversions, and builtins.
func FuncObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Package-qualified call: pkg.Fn(...).
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// IsPkgFunc reports whether call invokes the package-level function
// name declared in a package whose path ends in pkgSuffix.
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pkgSuffix, name string) bool {
	fn := FuncObj(info, call)
	if fn == nil || fn.Name() != name || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	return PathHasSuffix(fn.Pkg().Path(), pkgSuffix)
}

// IsMethod reports whether call invokes a method named name declared in
// a package whose path ends in one of pkgSuffixes (interface methods
// resolve to their declaring interface's package).
func IsMethod(info *types.Info, call *ast.CallExpr, name string, pkgSuffixes ...string) bool {
	fn := FuncObj(info, call)
	if fn == nil || fn.Name() != name || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	for _, s := range pkgSuffixes {
		if PathHasSuffix(fn.Pkg().Path(), s) {
			return true
		}
	}
	return false
}

// ReceiverExpr returns the receiver expression of a method call
// (the "x" of x.M(...)), or nil.
func ReceiverExpr(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return ast.Unparen(sel.X)
	}
	return nil
}

// UsedVar resolves an expression to the *types.Var it names, or nil.
func UsedVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := info.Uses[id].(*types.Var)
	if v == nil {
		v, _ = info.Defs[id].(*types.Var)
	}
	return v
}

// IsNil reports whether e is the predeclared nil.
func IsNil(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// MentionsValue reports whether v is used under n as a value — i.e.
// anywhere except as the receiver of a method call (r.M(...) uses r's
// methods, it does not pass r along).
func MentionsValue(info *types.Info, n ast.Node, v *types.Var) bool {
	found := false
	var stack []ast.Node
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || info.Uses[id] != v {
			return true
		}
		// Receiver position: [... CallExpr SelectorExpr Ident] with the
		// selector as the call's Fun and the ident as the selector's X.
		if len(stack) >= 3 {
			if sel, ok := stack[len(stack)-2].(*ast.SelectorExpr); ok && sel.X == id {
				if call, ok := stack[len(stack)-3].(*ast.CallExpr); ok && call.Fun == sel {
					return true
				}
			}
		}
		found = true
		return false
	})
	return found
}
