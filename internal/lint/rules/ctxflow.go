package rules

import (
	"go/ast"
	"go/types"

	"categorytree/internal/lint"
)

// CtxFlow enforces context propagation through the pipeline packages:
//
//   - context.Background() and context.TODO() are banned outside tests (the
//     request-scoped obs registry and trace recorder travel in the caller's
//     context; detaching from it silently reroutes metrics to the global
//     registry). Each pipeline stage has one entry point, and it takes the
//     caller's context.
//   - a function that receives a context.Context must not call the
//     context-free variant of an API that has a *Context sibling (e.g.
//     starting a stage with obs.Span.Child where ChildContext exists drops
//     the caller's context on the floor).
//
// A deliberate exception carries a //lint:ignore ctxflow directive that
// names its reason; cct's embed span, which has no context-taking callees
// to nest under, is the one left.
var CtxFlow = &lint.Analyzer{
	Name:  "ctxflow",
	Doc:   "pipeline functions must propagate their context.Context to every callee that accepts one",
	Match: lint.PathMatcher(pipelinePkgs...),
	Run:   runCtxFlow,
}

func runCtxFlow(pass *lint.Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeObj(info, call)
			if obj == nil {
				return true
			}
			if obj.Pkg() != nil && obj.Pkg().Path() == "context" &&
				(obj.Name() == "Background" || obj.Name() == "TODO") {
				pass.Reportf(call.Pos(), "context.%s in a pipeline package detaches metrics and traces from the request; thread the caller's ctx", obj.Name())
			}
			return true
		})

		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !funcHasCtxParam(info, fd) {
				continue
			}
			checkCtxSiblings(pass, info, fd)
		}
	}
}

// funcHasCtxParam reports whether fd declares a context.Context parameter.
func funcHasCtxParam(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if t := info.TypeOf(field.Type); t != nil && isContext(t) {
			return true
		}
	}
	return false
}

// checkCtxSiblings flags calls, inside a context-carrying function, to
// functions or methods that have a <Name>Context sibling accepting a
// context.
func checkCtxSiblings(pass *lint.Pass, info *types.Info, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := calleeObj(info, call)
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		fn, ok := obj.(*types.Func)
		if !ok {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sigAcceptsContext(sig) {
			return true // already context-aware
		}
		if sibling := contextSibling(fn); sibling != "" {
			pass.Reportf(call.Pos(), "%s ignores the function's ctx; call %s instead", fn.Name(), sibling)
		}
		return true
	})
}

// contextSibling returns the qualified name of a <Name>Context variant of fn
// accepting a context.Context, or "".
func contextSibling(fn *types.Func) string {
	name := fn.Name() + "Context"
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		// Method: look for the sibling in the receiver's method set.
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return ""
		}
		obj, _, _ := types.LookupFieldOrMethod(recv.Type(), true, fn.Pkg(), name)
		if m, ok := obj.(*types.Func); ok {
			if msig, ok := m.Type().(*types.Signature); ok && sigAcceptsContext(msig) {
				return named.Obj().Name() + "." + name
			}
		}
		return ""
	}
	obj := fn.Pkg().Scope().Lookup(name)
	if f, ok := obj.(*types.Func); ok {
		if fsig, ok := f.Type().(*types.Signature); ok && sigAcceptsContext(fsig) {
			if f.Pkg().Name() != "" {
				return f.Pkg().Name() + "." + name
			}
			return name
		}
	}
	return ""
}
