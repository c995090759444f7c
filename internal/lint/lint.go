// Package lint is a small static-analysis framework in the spirit of
// golang.org/x/tools/go/analysis, built only on the standard library's
// go/ast and go/types so the repository stays dependency-free. It powers
// cmd/octlint, the project's multichecker: analyzers encode the
// repository's cross-cutting conventions (context propagation, obs span
// discipline, ε-aware float comparisons, seeded randomness, diagnostic
// panics) so regressions fail CI instead of shipping.
//
// Analyzers receive a type-checked Pass per package and report
// Diagnostics. A finding can be suppressed with a directive comment on the
// same line or the line above:
//
//	//lint:ignore <analyzer> reason
//
// mirroring staticcheck's directive of the same name.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a short description shown by `octlint -list`.
	Doc string
	// Match restricts the analyzer to packages whose import path it
	// accepts; nil applies the analyzer everywhere.
	Match func(pkgPath string) bool
	// Run analyzes one package, reporting findings through the pass.
	Run func(*Pass)
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Pos locates the finding.
	Pos token.Position
	// Message describes the violation.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Pass carries one package through one analyzer.
type Pass struct {
	// Analyzer is the running analyzer.
	Analyzer *Analyzer
	// Pkg is the package under analysis.
	Pkg *Package
	// Prog is the whole-load view: //oct: annotations, cross-package
	// function summaries, and the atomic-field table. All packages of one
	// Run share it; its tables are computed lazily on first use.
	Prog *Program

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies every analyzer to every package and returns the surviving
// diagnostics (ignore directives applied) in file/line order.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	prog := NewProgram(pkgs)
	for _, pkg := range pkgs {
		ignores := collectIgnores(pkg)
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			if a.Match != nil && !a.Match(pkg.Path) {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, Prog: prog, diags: &pkgDiags}
			a.Run(pass)
		}
		for _, d := range pkgDiags {
			if !ignores.covers(d) {
				diags = append(diags, d)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// ignoreKey addresses one (file, line, analyzer) suppression.
type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

type ignoreSet map[ignoreKey]bool

var ignoreRe = regexp.MustCompile(`^//lint:ignore\s+(\S+)\s+\S`)

// collectIgnores gathers //lint:ignore directives. A directive suppresses
// matching diagnostics on its own line and on the following line (the
// directive-above-the-statement style).
func collectIgnores(pkg *Package) ignoreSet {
	set := make(ignoreSet)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, name := range strings.Split(m[1], ",") {
					set[ignoreKey{pos.Filename, pos.Line, name}] = true
					set[ignoreKey{pos.Filename, pos.Line + 1, name}] = true
				}
			}
		}
	}
	return set
}

func (s ignoreSet) covers(d Diagnostic) bool {
	return s[ignoreKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] ||
		s[ignoreKey{d.Pos.Filename, d.Pos.Line, "all"}]
}

// PathMatcher builds a Match function accepting packages whose import path
// ends in one of the given suffixes (e.g. "internal/conflict"), so analyzers
// match both the real module packages and relocated test fixtures.
func PathMatcher(suffixes ...string) func(string) bool {
	return func(path string) bool {
		for _, s := range suffixes {
			if path == s || strings.HasSuffix(path, "/"+s) {
				return true
			}
		}
		return false
	}
}

// Inspect walks every file of the pass's package in depth-first order.
func (p *Pass) Inspect(visit func(ast.Node) bool) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, visit)
	}
}
