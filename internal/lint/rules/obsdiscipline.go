package rules

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"categorytree/internal/lint"
)

// ObsDiscipline enforces the conventions that make the per-request
// observability layer trustworthy inside pipeline packages:
//
//   - metrics must come from the context's registry (obs.FromContext /
//     obs.StartSpanContext), never from the process-global obs.Default(),
//     which would leak a request's measurements into the shared registry;
//   - every started span (StartSpan, StartSpanContext, Child, ChildContext)
//     must be ended on every path: either a deferred End, or no return
//     statement between the start and the first End or EndErr call;
//   - no bare prints: log.Printf and friends bypass the structured logger
//     (internal/obs/log) and fmt.Printf/Print/Println write diagnostics to
//     stdout untagged — both lose the trace id and span attributes the
//     context handler would attach. The bare-print check also covers
//     cmd/octserve (which owns the access log); the registry and span checks
//     stay scoped to the pipeline packages, where server-level fallbacks
//     like obs.Default() are legitimate;
//   - in cmd/octserve, every handler registered on an http.ServeMux must go
//     through the server's instrument wrapper — the wrapper is what records
//     the per-endpoint request/error counters and latency histogram, so a
//     raw registration is an endpoint invisible to /metrics;
//   - in cmd/octserve, handlers registered under a mutating method pattern
//     ("POST /x", "PUT /x", ...) must additionally open a request span via
//     obs.StartSpanContext — mutations are exactly the requests whose
//     tail-sampled traces get pulled during an incident, and a spanless
//     write handler retains an empty trace;
//   - in internal/serve, every read-path handler (the exact
//     func(http.ResponseWriter, *http.Request) shape) must open a request
//     span via obs.StartSpanContext — the span is what the flight recorder
//     retains when the request tail-samples, so a spanless handler produces
//     empty /debug/traces entries for exactly the slow requests being
//     debugged.
var ObsDiscipline = &lint.Analyzer{
	Name:  "obsdiscipline",
	Doc:   "pipeline packages must use the context's obs registry, End every started span on all paths, and log through the structured logger",
	Match: lint.PathMatcher(append(pipelinePkgs[:len(pipelinePkgs):len(pipelinePkgs)], "cmd/octserve", "internal/serve")...),
	Run:   runObsDiscipline,
}

// globalObsAccessors are the obs entry points bound to the process-global
// registry.
var globalObsAccessors = map[string]bool{"Default": true}

// spanStarters are the obs functions/methods that begin a span. The value
// records which result index carries the span.
var spanStarters = map[string]bool{
	"StartSpan": true, "StartSpanContext": true, "Child": true, "ChildContext": true,
}

// barePrintFuncs lists the stdlib print entry points that bypass structured
// logging: the whole log.Print/Fatal/Panic family, and fmt's implicit-stdout
// printers (fmt.Fprintf to an explicit writer stays fine — that is how
// handlers write responses and binaries report fatal errors).
var barePrintFuncs = map[string]map[string]bool{
	"log": {
		"Print": true, "Printf": true, "Println": true,
		"Fatal": true, "Fatalf": true, "Fatalln": true,
		"Panic": true, "Panicf": true, "Panicln": true,
	},
	"fmt": {
		"Print": true, "Printf": true, "Println": true,
	},
}

func runObsDiscipline(pass *lint.Pass) {
	info := pass.Pkg.Info
	pipelineOnly := lint.PathMatcher(pipelinePkgs...)(pass.Pkg.Path)
	servePkg := lint.PathMatcher("internal/serve")(pass.Pkg.Path)

	// Package-wide FuncDecl index, so a registration in one file can resolve
	// the handler method declared in another.
	declByObj := map[types.Object]*ast.FuncDecl{}
	if !pipelineOnly && !servePkg {
		for _, f := range pass.Pkg.Files {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
					if obj := info.Defs[fn.Name]; obj != nil {
						declByObj[obj] = fn
					}
				}
			}
		}
	}
	for _, file := range pass.Pkg.Files {
		// Bare prints: everywhere the analyzer runs.
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if _, isMethod := info.Selections[sel]; isMethod {
				return true
			}
			obj := info.Uses[sel.Sel]
			if obj == nil {
				return true
			}
			for pkg, names := range barePrintFuncs {
				if names[obj.Name()] && isPkgFunc(obj, pkg, obj.Name()) {
					pass.Reportf(sel.Pos(), "%s.%s bypasses the structured logger; use internal/obs/log (olog) so the record carries the trace id and span", pkg, obj.Name())
				}
			}
			return true
		})
		if servePkg {
			// internal/serve: read-path handlers must open a request span.
			checkHandlerSpans(pass, file)
			continue
		}
		if !pipelineOnly {
			// cmd/octserve: handler registrations must be instrument-wrapped,
			// and mutating routes must open a request span.
			checkHandlerInstrumentation(pass, file)
			checkMutatingHandlerSpans(pass, file, declByObj)
			continue
		}
		// Global-registry accessors: package-level obs functions only
		// (methods on a *Registry value are registry-scoped and fine).
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if _, isMethod := info.Selections[sel]; isMethod {
				return true
			}
			obj := info.Uses[sel.Sel]
			if obj != nil && isPkgFunc(obj, "internal/obs", obj.Name()) && globalObsAccessors[obj.Name()] {
				pass.Reportf(sel.Pos(), "obs.%s records into the process-global registry; use obs.FromContext(ctx) or obs.StartSpanContext", obj.Name())
			}
			return true
		})

		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkSpanEnds(pass, file, fn.Body, fn)
				}
			}
			return true
		})
	}
}

// checkHandlerInstrumentation flags http.ServeMux registrations whose handler
// argument is not wrapped by the server's instrument helper. Accepted shapes
// are a direct wrap at the registration site
//
//	mux.HandleFunc("/x", s.instrument("x", s.handleX))
//
// and an identifier bound to a wrap result (the sharing pattern used when one
// handler serves several routes):
//
//	h := s.instrument("x", s.handleX)
//	mux.HandleFunc("/x", h)
//
// Anything else registers an endpoint that records no latency histogram.
func checkHandlerInstrumentation(pass *lint.Pass, file *ast.File) {
	info := pass.Pkg.Info

	// Identifiers assigned from an instrument(...) call, by object.
	wrapped := map[types.Object]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 || !isInstrumentCall(as.Rhs[0]) {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				wrapped[obj] = true
			}
			if obj := info.Uses[id]; obj != nil {
				wrapped[obj] = true
			}
		}
		return true
	})

	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "HandleFunc" && sel.Sel.Name != "Handle") {
			return true
		}
		if !isServeMuxMethod(info, sel) {
			return true
		}
		h := ast.Unparen(call.Args[1])
		if isInstrumentCall(h) {
			return true
		}
		if id, ok := h.(*ast.Ident); ok && wrapped[info.Uses[id]] {
			return true
		}
		pass.Reportf(call.Args[1].Pos(),
			"handler for %s is registered without the instrument wrapper, so the endpoint records no latency histogram; register s.instrument(name, handler) instead",
			routePattern(call.Args[0]))
		return true
	})
}

// checkHandlerSpans flags read-path handlers — functions or methods with the
// exact http.HandlerFunc shape func(http.ResponseWriter, *http.Request) —
// that never call obs.StartSpanContext. Helpers taking extra parameters or
// returning values are not handlers and stay exempt.
func checkHandlerSpans(pass *lint.Pass, file *ast.File) {
	info := pass.Pkg.Info
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		obj := info.Defs[fn.Name]
		if obj == nil {
			continue
		}
		sig, ok := obj.Type().(*types.Signature)
		if !ok || !isHandlerSig(sig) {
			continue
		}
		if !callsStartSpanContext(info, fn.Body) {
			pass.Reportf(fn.Name.Pos(),
				"read-path handler %s opens no request span; call obs.StartSpanContext so tail-sampled requests retain a trace", fn.Name.Name)
		}
	}
}

// callsStartSpanContext reports whether body contains a call to
// obs.StartSpanContext.
func callsStartSpanContext(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if c := calleeObj(info, call); c != nil && isPkgFunc(c, "internal/obs", "StartSpanContext") {
			found = true
			return false
		}
		return true
	})
	return found
}

// mutatingMethods are the HTTP methods whose method-prefixed mux patterns
// mark a write route.
var mutatingMethods = map[string]bool{
	"POST": true, "PUT": true, "DELETE": true, "PATCH": true,
}

// checkMutatingHandlerSpans flags mux registrations of mutating routes whose
// handler body never opens a request span. The handler is resolved through
// the instrument wrapper when present, across files; function literals are
// inspected in place. Handlers the resolver cannot see (externally
// constructed http.Handler values, say) are left alone — the check aims at
// the server's own write handlers, which are always plain methods.
func checkMutatingHandlerSpans(pass *lint.Pass, file *ast.File, decls map[types.Object]*ast.FuncDecl) {
	info := pass.Pkg.Info
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "HandleFunc" && sel.Sel.Name != "Handle") {
			return true
		}
		if !isServeMuxMethod(info, sel) {
			return true
		}
		lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		pat, err := strconv.Unquote(lit.Value)
		if err != nil {
			return true
		}
		method, _, found := strings.Cut(pat, " ")
		if !found || !mutatingMethods[method] {
			return true
		}
		h := ast.Unparen(call.Args[1])
		if wrap, ok := h.(*ast.CallExpr); ok && isInstrumentCall(wrap) && len(wrap.Args) == 2 {
			h = ast.Unparen(wrap.Args[1])
		}
		var body *ast.BlockStmt
		switch hx := h.(type) {
		case *ast.FuncLit:
			body = hx.Body
		case *ast.SelectorExpr:
			if fn := decls[info.Uses[hx.Sel]]; fn != nil {
				body = fn.Body
			}
		case *ast.Ident:
			if fn := decls[info.Uses[hx]]; fn != nil {
				body = fn.Body
			}
		}
		if body == nil || callsStartSpanContext(info, body) {
			return true
		}
		pass.Reportf(call.Args[1].Pos(),
			"mutating handler for %s opens no request span; call obs.StartSpanContext so tail-sampled writes retain a trace",
			routePattern(call.Args[0]))
		return true
	})
}

// isHandlerSig reports whether sig is exactly
// func(http.ResponseWriter, *http.Request).
func isHandlerSig(sig *types.Signature) bool {
	params := sig.Params()
	if params.Len() != 2 || sig.Results().Len() != 0 || sig.Variadic() {
		return false
	}
	ptr, ok := params.At(1).Type().(*types.Pointer)
	if !ok {
		return false
	}
	return isHTTPNamed(params.At(0).Type(), "ResponseWriter") &&
		isHTTPNamed(ptr.Elem(), "Request")
}

// isHTTPNamed reports whether t is the named net/http type with that name.
func isHTTPNamed(t types.Type, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}

// isInstrumentCall reports whether expr is a call to a function or method
// named instrument (the octserve wrapper that installs the per-endpoint
// counters and latency histogram).
func isInstrumentCall(expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "instrument"
	case *ast.SelectorExpr:
		return fun.Sel.Name == "instrument"
	}
	return false
}

// isServeMuxMethod reports whether sel selects a method on net/http.ServeMux
// (directly or through a pointer).
func isServeMuxMethod(info *types.Info, sel *ast.SelectorExpr) bool {
	selinfo, ok := info.Selections[sel]
	if !ok {
		return false
	}
	t := selinfo.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "ServeMux" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}

// routePattern renders the registration's pattern argument for diagnostics.
func routePattern(expr ast.Expr) string {
	if lit, ok := ast.Unparen(expr).(*ast.BasicLit); ok && lit.Kind == token.STRING {
		return lit.Value
	}
	return "this route"
}

// spanStart is one tracked span variable within a function.
type spanStart struct {
	obj  types.Object // the span variable
	pos  token.Pos    // position of the starting call
	fn   ast.Node     // innermost enclosing FuncDecl/FuncLit
	name string       // variable name, for diagnostics
}

// checkSpanEnds verifies End discipline for spans started in body.
func checkSpanEnds(pass *lint.Pass, file *ast.File, body *ast.BlockStmt, decl *ast.FuncDecl) {
	info := pass.Pkg.Info
	var starts []spanStart
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := calleeObj(info, call)
		if obj == nil || !spanStarters[obj.Name()] || obj.Pkg() == nil ||
			!isPkgFunc(obj, "internal/obs", obj.Name()) {
			return true
		}
		ident, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		if ident.Name == "_" {
			pass.Reportf(as.Pos(), "span from %s is discarded; it will never be ended", obj.Name())
			return true
		}
		var vobj types.Object
		if as.Tok == token.DEFINE {
			vobj = info.Defs[ident]
		} else {
			vobj = info.Uses[ident]
		}
		if vobj == nil {
			return true
		}
		starts = append(starts, spanStart{
			obj:  vobj,
			pos:  as.Pos(),
			fn:   innermostFunc(file, as.Pos()),
			name: ident.Name,
		})
		return true
	})

	for _, st := range starts {
		analyzeSpanLifetime(pass, file, decl, st)
	}
}

// analyzeSpanLifetime checks one tracked span for End-on-all-paths.
func analyzeSpanLifetime(pass *lint.Pass, file *ast.File, decl *ast.FuncDecl, st spanStart) {
	info := pass.Pkg.Info
	var (
		deferred  bool
		firstEnd  = token.Pos(-1)
		otherUses int
	)
	ast.Inspect(decl, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.DeferStmt:
			if isEndCallOn(info, node.Call, st.obj) {
				deferred = true
			}
		case *ast.CallExpr:
			if isEndCallOn(info, node, st.obj) {
				if firstEnd < 0 || node.Pos() < firstEnd {
					firstEnd = node.Pos()
				}
				return true
			}
			// The span escaping as a call argument transfers End
			// responsibility; don't second-guess it.
			for _, arg := range node.Args {
				if identIs(info, arg, st.obj) {
					otherUses++
				}
			}
		case *ast.ReturnStmt:
			for _, r := range node.Results {
				if identIs(info, r, st.obj) {
					otherUses++
				}
			}
		}
		return true
	})
	if deferred {
		return
	}
	if firstEnd < 0 {
		if otherUses == 0 {
			pass.Reportf(st.pos, "span %s is started but never ended; every Start/Child needs a matching End", st.name)
		}
		return
	}
	// Non-deferred End: any return between the start and the first End can
	// leak the span. Only returns in the same function literal count.
	ast.Inspect(decl, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if ret.Pos() <= st.pos || ret.Pos() >= firstEnd {
			return true
		}
		if innermostFunc(file, ret.Pos()) != st.fn {
			return true
		}
		pass.Reportf(ret.Pos(), "return leaves span %s unended (started without a deferred End); call %s.End() before returning", st.name, st.name)
		return true
	})
}

// isEndCallOn reports whether call is <obj>.End() or <obj>.EndErr(err).
func isEndCallOn(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "End" && sel.Sel.Name != "EndErr") {
		return false
	}
	return identIs(info, sel.X, obj)
}

// identIs reports whether expr is an identifier bound to obj.
func identIs(info *types.Info, expr ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return false
	}
	return info.Uses[id] == obj || info.Defs[id] == obj
}
