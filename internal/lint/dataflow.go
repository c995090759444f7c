package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

// This file is the intraprocedural half of the dataflow engine: stable keys
// for cross-package facts, selector-chain decomposition for writes and
// mutating calls, and the per-function def-use walk that classifies each
// local value as fresh (still under construction), published (escaped to a
// long-lived structure), or unknown (a parameter — the caller knows).
//
// Packages are type-checked independently against export data, so the same
// function or type is a different types.Object in each package that sees it.
// All interprocedural tables (annotations, summaries) are therefore keyed
// by strings that are identical no matter which package minted the object.

// genericArgs strips instantiation brackets so generic functions and types
// key the same across instantiations: "Pointer[pkg.Snapshot]" → "Pointer".
var genericArgs = regexp.MustCompile(`\[[^\[\]]*\]`)

// ObjKey returns the stable cross-package key for a function, method, type,
// or package-level variable: types.Func.FullName for functions/methods
// ("(*pkg/path.T).M", "pkg/path.F"), "pkg/path.Name" otherwise.
func ObjKey(obj types.Object) string {
	if obj == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if orig := fn.Origin(); orig != nil {
			fn = orig
		}
		return genericArgs.ReplaceAllString(fn.FullName(), "")
	}
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// TypeKey returns the stable key for the named type underlying t, looking
// through pointers, aliases, and instantiations; "" for unnamed types.
func TypeKey(t types.Type) string {
	if t == nil {
		return ""
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := n.Origin().Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// Chain is one decomposed access path: the expression at the base of a
// selector/index/dereference chain, plus the named types encountered along
// the way (outermost first). For `s.ev.traceID[0] = x` the base is `s` and
// the types are [ringSlot, packedEvent].
type Chain struct {
	// Base is the innermost operand: an *ast.Ident, an *ast.CallExpr, or
	// some other expression the walk could not decompose further.
	Base ast.Expr
	// BaseObj is the object Base resolves to when it is an identifier.
	BaseObj types.Object
	// TypeKeys are the named-type keys of every prefix of the chain,
	// including the base's own type, outermost access last.
	TypeKeys []string
}

// DecomposeChain walks expr down through selectors, index expressions, and
// dereferences to its base value, collecting the named types it passes
// through. Parens are ignored. Returns nil for expressions with no chain
// (literals, binary expressions, ...).
func DecomposeChain(info *types.Info, expr ast.Expr) *Chain {
	var keys []string
	push := func(e ast.Expr) {
		if k := TypeKey(info.TypeOf(e)); k != "" {
			keys = append(keys, k)
		}
	}
	for {
		expr = ast.Unparen(expr)
		switch e := expr.(type) {
		case *ast.SelectorExpr:
			// A package-qualified name (pkg.Var) is its own base.
			if id, ok := e.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					c := &Chain{Base: e, BaseObj: info.Uses[e.Sel]}
					push(e)
					c.TypeKeys = keys
					return c
				}
			}
			expr = e.X
		case *ast.IndexExpr:
			// Could be a generic instantiation rather than an index.
			if _, ok := info.Types[e.Index]; ok && info.Types[e.Index].IsType() {
				return &Chain{Base: e}
			}
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.Ident:
			obj := info.Uses[e]
			if obj == nil {
				obj = info.Defs[e]
			}
			push(e)
			return &Chain{Base: e, BaseObj: obj, TypeKeys: keys}
		case *ast.CallExpr:
			push(e)
			return &Chain{Base: e, TypeKeys: keys}
		default:
			return &Chain{Base: expr, TypeKeys: keys}
		}
		push(expr)
	}
}

// Touches reports whether any type along the chain is in the set identified
// by pred.
func (c *Chain) Touches(pred func(typeKey string) bool) (string, bool) {
	if c == nil {
		return "", false
	}
	for _, k := range c.TypeKeys {
		if pred(k) {
			return k, true
		}
	}
	return "", false
}

// Valueness classifies a local value's provenance at one program point.
type Valueness int

const (
	// ValueUnknown is the default: parameters, receivers, loads the flow
	// walk has no verdict on. Mutation of unknown values is the caller's
	// contract (enforced at their call sites through summaries).
	ValueUnknown Valueness = iota
	// ValueFresh values were constructed in this function (composite
	// literal, ctor call) and have not escaped: mutating them is the
	// build phase working as intended.
	ValueFresh
	// ValuePublished values came from, or were handed to, a long-lived
	// structure (non-ctor call result, stores-arg hand-off): mutating them
	// breaks build-then-publish.
	ValuePublished
)

// FlowEventKind discriminates the per-function event stream.
type FlowEventKind int

const (
	// EventWrite is an assignment through a selector/index/deref chain, an
	// IncDecStmt, or an assignment operator (+=, ...).
	EventWrite FlowEventKind = iota
	// EventCall is a function or method call.
	EventCall
	// EventAssign binds an identifier to a value (=, :=, var = expr).
	EventAssign
)

// FlowEvent is one ordered fact about a function body. Events are emitted in
// source order, which the flow analyses treat as an approximation of
// execution order (sound for straight-line build-then-publish code, the
// discipline under check).
type FlowEvent struct {
	Kind FlowEventKind
	Node ast.Node

	// Write: the full LHS expression and its decomposed chain.
	Target *Chain
	LHS    ast.Expr

	// Call: the call expression, resolved callee (nil for builtins and
	// indirect calls), and the receiver chain for method calls.
	Call     *ast.CallExpr
	Callee   types.Object
	Receiver *Chain

	// Assign: destination object and source expression.
	Dest types.Object
	Src  ast.Expr
}

// FuncFlow is the ordered event stream of one function body.
type FuncFlow struct {
	Decl   *ast.FuncDecl
	Events []FlowEvent
}

// FlowOf builds the event stream for fn's body (nil body → empty). Function
// literals nested in the body contribute their events in place: a mutation
// inside a closure is still a mutation by this function for discipline
// purposes.
func FlowOf(info *types.Info, fn *ast.FuncDecl) *FuncFlow {
	ff := &FuncFlow{Decl: fn}
	if fn.Body == nil {
		return ff
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range node.Lhs {
				var src ast.Expr
				if len(node.Rhs) == len(node.Lhs) {
					src = node.Rhs[i]
				} else if len(node.Rhs) == 1 {
					src = node.Rhs[0]
				}
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					obj := info.Defs[id]
					if obj == nil {
						obj = info.Uses[id]
					}
					ff.Events = append(ff.Events, FlowEvent{
						Kind: EventAssign, Node: node, Dest: obj, Src: src,
					})
					continue
				}
				ff.Events = append(ff.Events, FlowEvent{
					Kind: EventWrite, Node: node, LHS: lhs,
					Target: DecomposeChain(info, lhs),
				})
			}
		case *ast.IncDecStmt:
			if _, ok := ast.Unparen(node.X).(*ast.Ident); !ok {
				ff.Events = append(ff.Events, FlowEvent{
					Kind: EventWrite, Node: node, LHS: node.X,
					Target: DecomposeChain(info, node.X),
				})
			}
		case *ast.CallExpr:
			ev := FlowEvent{Kind: EventCall, Node: node, Call: node, Callee: calleeOf(info, node)}
			if sel, ok := ast.Unparen(node.Fun).(*ast.SelectorExpr); ok {
				if _, isMethod := info.Selections[sel]; isMethod {
					ev.Receiver = DecomposeChain(info, sel.X)
				}
			}
			ff.Events = append(ff.Events, ev)
		}
		return true
	})
	return ff
}

// calleeOf resolves the object a call invokes: a *types.Func for direct
// calls and method calls, a *types.Builtin for builtins, nil for indirect
// calls through variables and for type conversions.
func calleeOf(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return info.Uses[fun.Sel]
	case *ast.IndexExpr: // generic instantiation: F[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			return info.Uses[id]
		}
	}
	return nil
}

// exprMentions reports whether obj appears as an identifier anywhere in
// expr — the conservative "derived from" test the freshness and summary
// walks share.
func exprMentions(info *types.Info, expr ast.Expr, obj types.Object) bool {
	if expr == nil || obj == nil {
		return false
	}
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if info.Uses[id] == obj || info.Defs[id] == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
