package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sync"
)

// Program is the whole-load view the dataflow analyzers work from: every
// package of one Run, the //oct: annotation table, and the function
// summaries. All interprocedural tables are keyed by ObjKey /
// TypeKey strings, so facts line up across packages that were type-checked
// against different copies of the same dependency (source here, export data
// there).
//
// Expensive tables are computed once per Run, lazily, shared by every
// analyzer and package of the pass.
type Program struct {
	pkgs []*Package

	annotOnce sync.Once
	annots    Annotations

	funcOnce sync.Once
	funcs    map[string]*funcNode

	sumOnce sync.Once
	sums    map[string]*Summary

	atomicOnce sync.Once
	atomics    map[string]token.Position
}

// NewProgram wraps one load's packages for analysis.
func NewProgram(pkgs []*Package) *Program { return &Program{pkgs: pkgs} }

// Annotations returns the //oct: directive table for every declaration in
// the program.
func (p *Program) Annotations() Annotations {
	p.annotOnce.Do(func() {
		p.annots = make(Annotations)
		for _, pkg := range p.pkgs {
			collectAnnotations(pkg, p.annots)
		}
	})
	return p.annots
}

// funcNodes returns the per-function analysis nodes, keyed by ObjKey.
func (p *Program) funcNodes() map[string]*funcNode {
	p.funcOnce.Do(func() {
		p.funcs = make(map[string]*funcNode)
		for _, pkg := range p.pkgs {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok {
						continue
					}
					if node := newFuncNode(pkg, fn); node != nil {
						p.funcs[node.key] = node
					}
				}
			}
		}
	})
	return p.funcs
}

// Summaries returns the fixpoint function summaries, keyed by ObjKey.
func (p *Program) Summaries() map[string]*Summary {
	p.sumOnce.Do(func() {
		p.sums = computeSummaries(p.funcNodes(), p.Annotations())
	})
	return p.sums
}

// Summary returns the summary for the function key: a computed one for
// source-analyzed functions, a known table entry for externals, nil when
// nothing is known.
func (p *Program) Summary(key string) *Summary {
	if s, ok := p.Summaries()[key]; ok {
		return s
	}
	return externalSummary(key)
}

// AtomicFields returns the fields accessed through a sync/atomic
// package-level function anywhere in the program (key: TypeKey of the
// owning struct + "." + field name), mapped to the first atomic access
// position — the anchor the atomicfield analyzer cites when it finds a
// plain access elsewhere.
func (p *Program) AtomicFields() map[string]token.Position {
	p.atomicOnce.Do(func() {
		p.atomics = make(map[string]token.Position)
		for _, pkg := range p.pkgs {
			collectAtomicFields(pkg, p.atomics)
		}
	})
	return p.atomics
}

// collectAtomicFields records fields whose address is passed to a
// sync/atomic package-level function (atomic.AddInt64(&s.n, 1), ...).
func collectAtomicFields(pkg *Package, into map[string]token.Position) {
	info := pkg.Info
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeOf(info, call)
			if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync/atomic" {
				return true
			}
			for _, arg := range call.Args {
				key, pos := atomicFieldArg(pkg, arg)
				if key == "" {
					continue
				}
				if _, seen := into[key]; !seen {
					into[key] = pkg.Fset.Position(pos)
				}
			}
			return true
		})
	}
}

// atomicFieldArg resolves an &x.f argument to its field key, or "".
func atomicFieldArg(pkg *Package, arg ast.Expr) (string, token.Pos) {
	un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return "", 0
	}
	return fieldKeyOf(pkg, ast.Unparen(un.X))
}

// fieldKeyOf returns the owning-struct-qualified key of the field expr
// selects ("pkg/path.Struct.field"), or "".
func fieldKeyOf(pkg *Package, expr ast.Expr) (string, token.Pos) {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	selinfo, ok := pkg.Info.Selections[sel]
	if !ok || selinfo.Kind() != types.FieldVal {
		return "", 0
	}
	owner := TypeKey(selinfo.Recv())
	if owner == "" {
		return "", 0
	}
	return owner + "." + sel.Sel.Name, sel.Pos()
}
