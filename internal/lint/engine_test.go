package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// checkSrc type-checks one in-memory source file as a package, resolving
// imports against the already-checked deps. It keeps the engine unit tests
// free of go-list round trips: everything the dataflow tables need comes
// from plain source.
func checkSrc(t *testing.T, path, src string, deps ...*Package) *Package {
	t.Helper()
	fset := token.NewFileSet()
	if len(deps) > 0 {
		fset = deps[0].Fset
	}
	f, err := parser.ParseFile(fset, path+"/src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	imp := make(memImporter, len(deps))
	for _, d := range deps {
		imp[d.Path] = d.Types
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}
}

type memImporter map[string]*types.Package

func (m memImporter) Import(path string) (*types.Package, error) {
	if p, ok := m[path]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("memImporter: unknown import %q", path)
}

func TestAnnotations(t *testing.T) {
	pkg := checkSrc(t, "fix/annot", `package annot

// Frozen is frozen after construction.
//oct:immutable snapshots never change
type Frozen struct{ n int }

//oct:immutable
type (
	Grouped  struct{ n int }
	AlsoHere struct{ n int }
)

// NewFrozen builds one.
//oct:ctor
func NewFrozen() *Frozen { return &Frozen{} }

//oct:hotpath
//oct:coldpath
func both() {}

func plain() {}
`)
	prog := NewProgram([]*Package{pkg})
	an := prog.Annotations()
	for key, annot := range map[string]string{
		"fix/annot.Frozen":    AnnotImmutable,
		"fix/annot.Grouped":   AnnotImmutable,
		"fix/annot.AlsoHere":  AnnotImmutable,
		"fix/annot.NewFrozen": AnnotCtor,
	} {
		if !an.Has(key, annot) {
			t.Errorf("missing %s on %s; table: %v", annot, key, an)
		}
	}
	if !an.Has("fix/annot.both", AnnotHotPath) || !an.Has("fix/annot.both", AnnotColdPath) {
		t.Errorf("both should carry hotpath and coldpath: %v", an["fix/annot.both"])
	}
	if an["fix/annot.plain"] != nil {
		t.Errorf("plain should have no annotations: %v", an["fix/annot.plain"])
	}
}

func TestObjKeyAndTypeKey(t *testing.T) {
	pkg := checkSrc(t, "fix/keys", `package keys

type Box[T any] struct{ v T }

func (b *Box[T]) Put(v T) { b.v = v }

func Generic[T any](v T) T { return v }

type Named struct{ n int }
type Alias = Named

func F() {}

func use() {
	var b Box[int]
	b.Put(1)
	_ = Generic(2)
}
`)
	scope := pkg.Types.Scope()
	if got := ObjKey(scope.Lookup("F")); got != "fix/keys.F" {
		t.Errorf("ObjKey(F) = %q", got)
	}
	if got := ObjKey(scope.Lookup("Generic")); got != "fix/keys.Generic" {
		t.Errorf("ObjKey(Generic) = %q, want brackets stripped", got)
	}
	// Method keys must be identical across instantiations.
	var putKeys []string
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if s, ok := pkg.Info.Selections[sel]; ok && sel.Sel.Name == "Put" {
				putKeys = append(putKeys, ObjKey(s.Obj()))
			}
			return true
		})
	}
	if len(putKeys) != 1 || putKeys[0] != "(*fix/keys.Box).Put" {
		t.Errorf("instantiated method key = %v, want [(*fix/keys.Box).Put]", putKeys)
	}

	named := scope.Lookup("Named").Type()
	if got := TypeKey(named); got != "fix/keys.Named" {
		t.Errorf("TypeKey(Named) = %q", got)
	}
	if got := TypeKey(types.NewPointer(named)); got != "fix/keys.Named" {
		t.Errorf("TypeKey(*Named) = %q", got)
	}
	if got := TypeKey(scope.Lookup("Alias").Type()); got != "fix/keys.Named" {
		t.Errorf("TypeKey(Alias) = %q", got)
	}
	if got := TypeKey(types.Typ[types.Int]); got != "" {
		t.Errorf("TypeKey(int) = %q, want empty", got)
	}
}

func TestDecomposeChain(t *testing.T) {
	pkg := checkSrc(t, "fix/chain", `package chain

type Inner struct{ xs [4]int }
type Outer struct{ in Inner }

func write(o *Outer) {
	o.in.xs[0] = 1
}
`)
	var target *Chain
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok {
				target = DecomposeChain(pkg.Info, as.Lhs[0])
			}
			return true
		})
	}
	if target == nil {
		t.Fatal("no assignment found")
	}
	if target.BaseObj == nil || target.BaseObj.Name() != "o" {
		t.Fatalf("base = %v, want o", target.BaseObj)
	}
	want := map[string]bool{"fix/chain.Outer": true, "fix/chain.Inner": true}
	for _, k := range target.TypeKeys {
		delete(want, k)
	}
	if len(want) != 0 {
		t.Errorf("chain %v missing type keys %v", target.TypeKeys, want)
	}
	if k, ok := target.Touches(func(k string) bool { return k == "fix/chain.Inner" }); !ok || k != "fix/chain.Inner" {
		t.Errorf("Touches(Inner) = %q, %v", k, ok)
	}
}

func TestSummariesMutation(t *testing.T) {
	pkg := checkSrc(t, "fix/mut", `package mut

type T struct{ n int }

func (t *T) set(n int) { t.n = n }

func (t *T) SetTwice(n int) {
	t.set(n)
	t.set(n)
}

func (t *T) Get() int { return t.n }

func bump(p *T) { p.n++ }

func bumpVia(p *T) { bump(p) }

func reads(p *T) int { return p.n }
`)
	sums := NewProgram([]*Package{pkg}).Summaries()
	cases := []struct {
		key  string
		want bool
	}{
		{"(*fix/mut.T).set", true},
		{"(*fix/mut.T).SetTwice", true}, // transitive through set
		{"(*fix/mut.T).Get", false},
	}
	for _, c := range cases {
		s := sums[c.key]
		if s == nil {
			t.Fatalf("no summary for %s", c.key)
		}
		if s.MutatesReceiver != c.want {
			t.Errorf("%s MutatesReceiver = %v, want %v", c.key, s.MutatesReceiver, c.want)
		}
	}
	if s := sums["fix/mut.bump"]; s == nil || len(s.MutatesArgs) != 1 || !s.MutatesArgs[0] {
		t.Errorf("bump MutatesArgs = %+v, want [true]", sums["fix/mut.bump"])
	}
	if s := sums["fix/mut.bumpVia"]; s == nil || !s.MutatesArgs[0] {
		t.Errorf("bumpVia MutatesArgs = %+v, want transitive [true]", sums["fix/mut.bumpVia"])
	}
	if s := sums["fix/mut.reads"]; s == nil || s.MutatesArgs[0] {
		t.Errorf("reads MutatesArgs = %+v, want [false]", sums["fix/mut.reads"])
	}
}

func TestSummariesStores(t *testing.T) {
	pkg := checkSrc(t, "fix/store", `package store

type T struct{ n int }

type Holder struct{ cur *T }

var global *T

func publish(t *T) { global = t }

func publishVia(t *T) { publish(t) }

// publishWrapped derives a composite from the argument before storing it:
// the store must still be attributed to t.
func publishWrapped(t *T) {
	h := &Holder{cur: t}
	global = h.cur
}

func (h *Holder) Set(t *T) { h.cur = t }

func local(t *T) {
	cp := t
	_ = cp
}
`)
	sums := NewProgram([]*Package{pkg}).Summaries()
	for _, key := range []string{"fix/store.publish", "fix/store.publishVia", "fix/store.publishWrapped"} {
		s := sums[key]
		if s == nil || len(s.StoresArgs) != 1 || !s.StoresArgs[0] {
			t.Errorf("%s StoresArgs = %+v, want [true]", key, s)
		}
		if s == nil || len(s.PublishesArgs) != 1 || !s.PublishesArgs[0] {
			t.Errorf("%s PublishesArgs = %+v, want [true] (reaches a global)", key, s)
		}
	}
	if s := sums["(*fix/store.Holder).Set"]; s == nil || !s.StoresArgs[0] {
		t.Errorf("Set StoresArgs = %+v, want [true] (escapes into receiver)", sums["(*fix/store.Holder).Set"])
	} else if s.PublishesArgs[0] {
		t.Errorf("Set PublishesArgs = %+v, want [false] (receiver store is not shared-state publication)", s)
	}
	if s := sums["fix/store.local"]; s == nil || s.StoresArgs[0] {
		t.Errorf("local StoresArgs = %+v, want [false]", sums["fix/store.local"])
	}
}

func TestSummariesAllocates(t *testing.T) {
	pkg := checkSrc(t, "fix/alloc", `package alloc

func direct() []int { return make([]int, 8) }

func via() []int { return direct() }

//oct:coldpath
func slowExit() []int { return make([]int, 8) }

// throughCold calls only a sanctioned cold path: the allocation must not
// propagate into its own summary.
func throughCold() {
	if false {
		slowExit()
	}
}

func clean(a, b int) int { return a + b }
`)
	prog := NewProgram([]*Package{pkg})
	sums := prog.Summaries()
	cases := map[string]bool{
		"fix/alloc.direct":      true,
		"fix/alloc.via":         true,
		"fix/alloc.slowExit":    true,
		"fix/alloc.throughCold": false,
		"fix/alloc.clean":       false,
	}
	for key, want := range cases {
		s := sums[key]
		if s == nil {
			t.Fatalf("no summary for %s", key)
		}
		if s.Allocates != want {
			t.Errorf("%s Allocates = %v, want %v", key, s.Allocates, want)
		}
	}
}

func TestExternalSummaries(t *testing.T) {
	s := externalSummary("(*sync/atomic.Pointer).Store")
	if s == nil || len(s.StoresArgs) != 1 || !s.StoresArgs[0] || !s.PublishesArgs[0] {
		t.Errorf("atomic.Pointer.Store summary = %+v, want stores+publishes", s)
	}
	if s := externalSummary("fmt.Sprintf"); s == nil || !s.Allocates {
		t.Errorf("fmt.Sprintf summary = %+v, want Allocates", s)
	}
	if s := externalSummary("unknown/pkg.F"); s != nil {
		t.Errorf("unknown external summary = %+v, want nil", s)
	}
}

func TestCrossPackageSummary(t *testing.T) {
	base := checkSrc(t, "fix/xbase", `package xbase

type T struct{ n int }

func (t *T) Bump() { t.n++ }
`)
	user := checkSrc(t, "fix/xuser", `package xuser

import "fix/xbase"

func BumpIt(t *xbase.T) { t.Bump() }
`, base)
	sums := NewProgram([]*Package{base, user}).Summaries()
	// The mutation fact crosses the package boundary via the string key.
	if s := sums["fix/xuser.BumpIt"]; s == nil || !s.MutatesArgs[0] {
		t.Errorf("BumpIt MutatesArgs = %+v, want [true] via (*xbase.T).Bump", sums["fix/xuser.BumpIt"])
	}
}

func TestAllocSites(t *testing.T) {
	pkg := checkSrc(t, "fix/sites", `package sites

func hot(buf []int, s string, bs []byte) {
	m := map[string]int{}        // map literal
	sl := []int{1, 2}            // slice literal
	p := &struct{ n int }{n: 1}  // &composite
	f := func() {}               // closure
	cat := s + s                 // string concat
	conv := []byte(s)            // conversion
	back := string(bs)           // conversion
	mk := make([]int, 4)         // make
	nw := new(int)               // new
	var iface interface{} = sl   // boxing a slice header
	buf = append(buf, 1)         // append: NOT a site
	const greeting = "a" + "b"   // constant: NOT a site
	_, _, _, _, _, _, _, _, _, _, _ = m, sl, p, f, cat, conv, back, mk, nw, iface, buf
	_ = greeting
}
`)
	var fn *ast.FuncDecl
	for _, d := range pkg.Files[0].Decls {
		if f, ok := d.(*ast.FuncDecl); ok {
			fn = f
		}
	}
	sites := AllocSites(pkg.Info, fn.Body)
	var got []string
	for _, s := range sites {
		got = append(got, s.What)
	}
	want := []string{
		"map literal", "slice literal", "&composite literal", "closure literal",
		"string concatenation", "string/byte-slice conversion",
		"string/byte-slice conversion", "make", "new", "interface boxing",
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("AllocSites = %v\nwant %v", got, want)
	}
}

func TestAtomicFieldsFromSource(t *testing.T) {
	// AtomicFields needs real sync/atomic objects; synthesize the package
	// shape in-memory is not possible, so just assert the empty program is
	// well-behaved — the rules fixture tests exercise the real table.
	prog := NewProgram(nil)
	if got := prog.AtomicFields(); len(got) != 0 {
		t.Errorf("AtomicFields on empty program = %v", got)
	}
}
