// Package arenasafety enforces the ownership contract of the pooled
// values on the messaging hot path: graph.AcquireRef/AcquireRefNoCK draw
// a Ref analyzer from a pool and must be paired with Ref.Release within
// the acquiring function — unless the acquired value escapes (is
// returned, stored into longer-lived structure, or handed to another
// function), in which case ownership moved and the pairing obligation
// moved with it.
//
// The check is flow-insensitive and per-function: it asks "does a
// release exist in this function at all", not "on every path" — cheap,
// zero false negatives for the failure mode that matters (a deleted
// Release), and precise enough to run clean on the real tree.
//
// A reviewed exception is waived with //eba:arena-ok on the exact
// reported line; unused waivers are themselves diagnosed as stale.
package arenasafety

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"repro/internal/analysis/ebautil"
	"repro/internal/analysis/suppress"
)

// Analyzer is the arenasafety analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "arenasafety",
	Doc: "enforce acquire/release pairing for pooled graph analyzers " +
		"(graph.AcquireRef/AcquireRefNoCK with Ref.Release; " +
		"suppress a reviewed line with //eba:arena-ok)",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// reporter is the suppression-aware Reportf the checks go through.
type reporter struct {
	pass *analysis.Pass
	sup  *suppress.Set
}

func (r reporter) reportf(pos token.Pos, format string, args ...interface{}) {
	if r.sup.Suppressed(r.pass.Fset, pos) {
		return
	}
	r.pass.Reportf(pos, format, args...)
}

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	rep := reporter{pass: pass, sup: suppress.Collect(pass, "arena")}
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		if fd := n.(*ast.FuncDecl); fd.Body != nil {
			checkPairing(rep, fd)
		}
	})
	rep.sup.ReportStale(pass)
	return nil, nil
}

func isAcquireRef(info *types.Info, call *ast.CallExpr) bool {
	return ebautil.IsPkgFunc(info, call, "internal/graph", "AcquireRef") ||
		ebautil.IsPkgFunc(info, call, "internal/graph", "AcquireRefNoCK")
}

func isReleaseRef(info *types.Info, call *ast.CallExpr) bool {
	return ebautil.IsMethod(info, call, "Release", "internal/graph")
}

// acquireSite is one acquire call and the variable (if any) its result
// was bound to.
type acquireSite struct {
	call *ast.CallExpr
	name string // AcquireRef / AcquireRefNoCK
	v    *types.Var
}

func checkPairing(rep reporter, fd *ast.FuncDecl) {
	info := rep.pass.TypesInfo
	var acquires []acquireSite
	releasedVars := map[*types.Var]bool{}
	releaseAny := false // releases whose operand we could not resolve

	// First pass: find acquires and their bindings, and releases.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 {
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok && isAcquireRef(info, call) {
					if len(n.Lhs) == 1 {
						if id, ok := ast.Unparen(n.Lhs[0]).(*ast.Ident); ok {
							if id.Name == "_" {
								acquires = append(acquires, acquireSite{call: call, name: ebautil.FuncObj(info, call).Name()})
							} else {
								acquires = append(acquires, acquireSite{call: call, name: ebautil.FuncObj(info, call).Name(), v: ebautil.UsedVar(info, id)})
							}
							return true
						}
						// Bound straight into a field, index, or deref:
						// ownership moved into the structure. The holder
						// releases it later.
					}
					return true
				}
			}
		case *ast.ValueSpec:
			if len(n.Values) == 1 {
				if call, ok := ast.Unparen(n.Values[0]).(*ast.CallExpr); ok && isAcquireRef(info, call) {
					var v *types.Var
					if len(n.Names) == 1 && n.Names[0].Name != "_" {
						v, _ = info.Defs[n.Names[0]].(*types.Var)
					}
					acquires = append(acquires, acquireSite{call: call, name: ebautil.FuncObj(info, call).Name(), v: v})
					return true
				}
			}
		case *ast.CallExpr:
			switch {
			case isReleaseRef(info, n):
				if v := ebautil.UsedVar(info, ebautil.ReceiverExpr(n)); v != nil {
					releasedVars[v] = true
				} else {
					releaseAny = true
				}
			case isAcquireRef(info, n):
				// An acquire whose result is consumed inline:
				// AcquireRef(...).Release() chains count as released via
				// the receiver walk below; a bare statement leaks.
				if !partOfBinding(fd.Body, n) {
					if !chainedRelease(info, fd.Body, n) {
						rep.reportf(n.Pos(), "result of %s is neither bound nor released: the pooled value leaks",
							ebautil.FuncObj(info, n).Name())
					}
				}
			}
		}
		return true
	})

	for _, a := range acquires {
		if a.v == nil || a.v.Name() == "_" {
			rep.reportf(a.call.Pos(), "result of %s is discarded: the pooled value leaks", a.name)
			continue
		}
		if releasedVars[a.v] || releaseAny {
			continue
		}
		if escapes(info, fd.Body, a.v, a.call) {
			continue // ownership handed off; the pairing obligation moved
		}
		rep.reportf(a.call.Pos(), "%s is acquired into %q but neither released nor handed off in %s: pair it with Release",
			a.name, a.v.Name(), fd.Name.Name)
	}
}

// partOfBinding reports whether call is the RHS of an assignment or
// value spec (those are handled by the binding walk).
func partOfBinding(body *ast.BlockStmt, call *ast.CallExpr) bool {
	bound := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, r := range n.Rhs {
				if ast.Unparen(r) == call {
					bound = true
				}
			}
		case *ast.ValueSpec:
			for _, r := range n.Values {
				if ast.Unparen(r) == call {
					bound = true
				}
			}
		}
		return !bound
	})
	return bound
}

// chainedRelease reports whether call appears as the receiver of a
// direct Release call: graph.AcquireRef(t, g).Release().
func chainedRelease(info *types.Info, body *ast.BlockStmt, call *ast.CallExpr) bool {
	chained := false
	ast.Inspect(body, func(n ast.Node) bool {
		outer, ok := n.(*ast.CallExpr)
		if !ok || !isReleaseRef(info, outer) {
			return true
		}
		if sel, ok := ast.Unparen(outer.Fun).(*ast.SelectorExpr); ok && ast.Unparen(sel.X) == call {
			chained = true
		}
		return !chained
	})
	return chained
}

// escapes reports whether v is handed beyond the function's pairing
// obligation: returned, passed to a call (other than the matched
// releases, which were collected already), stored into anything that
// is not a plain local variable, sent on a channel, or captured in a
// composite literal. Flow-insensitive: any such use anywhere counts.
func escapes(info *types.Info, body *ast.BlockStmt, v *types.Var, acquire *ast.CallExpr) bool {
	esc := false
	ast.Inspect(body, func(n ast.Node) bool {
		if esc {
			return false
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if ebautil.MentionsValue(info, r, v) {
					esc = true
				}
			}
		case *ast.CallExpr:
			if n == acquire || isReleaseRef(info, n) {
				return true
			}
			for _, a := range n.Args {
				if ebautil.MentionsValue(info, a, v) {
					esc = true
				}
			}
			// Method calls on v (r.OwnerAction()) are plain uses, not
			// escapes: the receiver does not retain the analyzer.
		case *ast.SendStmt:
			if ebautil.MentionsValue(info, n.Value, v) {
				esc = true
			}
		case *ast.CompositeLit:
			if ebautil.MentionsValue(info, n, v) {
				esc = true
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i < len(n.Rhs) && ast.Unparen(n.Rhs[i]) == ast.Unparen(acquire) {
					continue // the binding itself
				}
				// v stored anywhere but a fresh local: field, index,
				// dereference, or another variable (alias — give up and
				// treat as handed off).
				if _, plain := ast.Unparen(lhs).(*ast.Ident); !plain {
					if ebautil.MentionsValue(info, lhs, v) {
						esc = true
						continue
					}
				}
				if i < len(n.Rhs) && ebautil.MentionsValue(info, n.Rhs[i], v) {
					esc = true
				} else if len(n.Rhs) == 1 && len(n.Lhs) > 1 && ebautil.MentionsValue(info, n.Rhs[0], v) {
					esc = true
				}
			}
		}
		return !esc
	})
	return esc
}
