package syrup_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/fstest"
)

// exportAllow names the exported declarations under internal/ that no
// non-test file reaches and that stay exported anyway, one concept per row.
// A row's names are space-separated patterns over qualified names — the
// package path below internal/, then the type, then the member:
// "ebpf.AsmFile.Text" — matched by path.Match; a pattern naming a
// type also covers its methods and fields. A row that matches nothing
// unreached fails the test, so the list only shrinks.
var exportAllow = []allowRow{
	{"ebpf.AsmFile.Text", "round-trip oracle: the ebpf and policy tests re-assemble its output to the same stream"},
	{"kernel.Thread.Exit", "simulated servers loop forever; the finite threads of the scheduler tests exit"},
	{"policy.FIFO", "the baseline ghOSt policy of the facade, decision-trace and policy tests"},
}

// fieldAllow names the exported struct fields that non-test code reads but
// never writes and that stay anyway, in exportAllow's pattern form (the
// facade's own fields are qualified "syrup.").
var fieldAllow = []allowRow{
	{"syrupd.Request", "the control protocol's request: encoding/json fills it from the socket"},
	{"experiments.rocksPoint.SwapTo", "the §4.3 mid-measure hot swap: TestGolden pins the one run that sets it"},
}

type allowRow struct{ names, reason string }

// TestExportsAreReached is the dead-surface gate: every exported func,
// method, type, struct field, const and var declared in a non-test file
// under internal/ is used from some non-test file of the repo — the facade,
// a CLI, an example, another internal package, its own package, or the
// benchmark module, which compiles against these names from outside — or
// it has an exportAllow row. A method also counts as reached when its
// receiver implements an interface, declared or imported by the checked
// packages, that contains it (fmt.Stringer, heap.Interface, a scheduling
// class). A name only tests use belongs in the test, unexported, or gone.
func TestExportsAreReached(t *testing.T) {
	t.Run("fixture", func(t *testing.T) {
		tree, err := loadTree(exportsFixture)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := unreachedExports(tree), []string{"a.Planted"}; !slices.Equal(got, want) {
			t.Fatalf("unreached = %q, want %q", got, want)
		}
	})

	tree, err := repoTree()
	if err != nil {
		t.Fatal(err)
	}
	checkAllowed(t, exportAllow, 3, unreachedExports(tree),
		"is exported but no non-test file reaches it: delete it, unexport it, or give it an exportAllow row")
}

// TestFieldsAreWritten is the settable-value gate: every exported struct
// field declared in a non-test file under internal/ or in the facade that
// some non-test file reads is also written by some non-test file, or it has
// a fieldAllow row. A write is a composite-literal element, keyed or not;
// an assignment, op-assignment or ++/-- through a selector chain that
// passes through the field (n.Stats.Drops++ writes Stats and Drops); or a
// pointer-receiver method called on the addressable field (t.Gets.Add(1)).
// Taking &x.F is not a write: a helper that fills a default through the
// pointer only fills in what no caller set. A zero-value default arm — if x.F == 0 { x.F = … } (or
// == ""), with no else — is not a write of x.F: it only fills in the value
// no caller set. A field no run sets is a constant: make it one, or delete
// the code behind its other values.
func TestFieldsAreWritten(t *testing.T) {
	t.Run("fixture", func(t *testing.T) {
		tree, err := loadTree(fieldsFixture)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := unwrittenFields(tree), []string{"a.T.Defaulted", "a.T.Planted", "a.T.Ptr"}; !slices.Equal(got, want) {
			t.Fatalf("unwritten = %q, want %q", got, want)
		}
	})

	tree, err := repoTree()
	if err != nil {
		t.Fatal(err)
	}
	checkAllowed(t, fieldAllow, 2, unwrittenFields(tree),
		"is read but no non-test file sets it: make it a constant, delete it, or give it a fieldAllow row")
}

// TestPoliciesRunThroughHooks: outside internal/ebpf, internal/hook and
// internal/experiments (Table 2 times the VM itself), no non-test file
// under internal/ runs a program directly. A layer that called
// (*ebpf.Program).Run would bypass the hook point's fail-open verdicts and
// its per-point accounting (DESIGN.md "Hook points and links").
func TestPoliciesRunThroughHooks(t *testing.T) {
	t.Run("fixture", func(t *testing.T) {
		tree, err := loadTree(runsFixture)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := directRuns(tree), []string{"nic calls ebpf.Program.Run", "nic calls ebpf.Program.RunRet64"}; !slices.Equal(got, want) {
			t.Fatalf("direct runs = %q, want %q", got, want)
		}
	})

	tree, err := repoTree()
	if err != nil {
		t.Fatal(err)
	}
	for _, call := range directRuns(tree) {
		t.Errorf("%s: run policies through hook.Point.Run", call)
	}
}

// checkAllowed fails for every name no row of allow matches, for every row
// that matches nothing, and for a list longer than budget.
func checkAllowed(t *testing.T, allow []allowRow, budget int, names []string, why string) {
	t.Helper()
	if len(allow) > budget {
		t.Errorf("%d allow-list rows; the budget is %d", len(allow), budget)
	}
	used := make([]bool, len(allow))
	for _, name := range names {
		i := slices.IndexFunc(allow, func(row allowRow) bool {
			return slices.ContainsFunc(strings.Fields(row.names), func(pattern string) bool {
				ok, _ := path.Match(pattern, name)
				return ok || strings.HasPrefix(name, pattern+".")
			})
		})
		if i < 0 {
			t.Errorf("%s %s", name, why)
			continue
		}
		used[i] = true
	}
	for i, row := range allow {
		if !used[i] {
			t.Errorf("allow-list row %q matches nothing: delete the row", row.names)
		}
	}
}

// exportsFixture is a two-module tree with one planted export that only a
// test calls. T.String is reached only through fmt.Stringer and Used only
// from the second module; neither may be reported.
var exportsFixture = fstest.MapFS{
	"go.mod": {Data: []byte("module fix\n")},
	"internal/a/a.go": {Data: []byte(`package a

import "fmt"

type T struct{ n int }

func (T) String() string { return "t" }

func New() T { return T{} }

func Planted() int { return 1 }

func Used() { fmt.Println(New()) }
`)},
	"internal/a/a_test.go": {Data: []byte("package a\n\nvar _ = Planted()\n")},
	"main.go":              {Data: []byte("package main\n\nimport \"fix/internal/a\"\n\nfunc main() { _ = a.New() }\n")},
	"benchmark/go.mod":     {Data: []byte("module fix/benchmark\n")},
	"benchmark/main.go":    {Data: []byte("package main\n\nimport \"fix/internal/a\"\n\nfunc main() { a.Used() }\n")},
}

// fieldsFixture plants one field that is read and only a test writes, one
// whose only writer is its zero-value default arm, and one whose address
// only is taken (&x.F). The others are written only through a selector
// chain, a pointer-method call, an unkeyed literal, from the second module
// or by an if arm that is not a zero-value default, and read everywhere;
// none may be reported.
var fieldsFixture = fstest.MapFS{
	"go.mod": {Data: []byte("module fix\n")},
	"internal/a/a.go": {Data: []byte(`package a

import "sync/atomic"

type Stats struct{ Drops int }

type T struct {
	Planted   int
	Defaulted int
	Clamped   int
	Stats     Stats
	Gets      atomic.Uint64
	Ptr       int
	Remote    int
}

type Pair struct{ X, Y int }

func (t *T) fill() {
	if t.Defaulted == 0 {
		t.Defaulted = 5
	}
	if t.Clamped == 0 {
		t.Clamped = 1
	} else {
		t.Clamped = 2
	}
}

func Read(t *T, p Pair) int {
	t.fill()
	t.Stats.Drops++
	t.Gets.Add(1)
	_ = &t.Ptr
	return t.Planted + t.Defaulted + t.Clamped + t.Stats.Drops + int(t.Gets.Load()) + t.Ptr + t.Remote + p.X + p.Y
}

var Origin = Pair{1, 2}
`)},
	"internal/a/a_test.go": {Data: []byte("package a\n\nvar _ = T{Planted: 1}\n")},
	"benchmark/go.mod":     {Data: []byte("module fix/benchmark\n")},
	"benchmark/main.go":    {Data: []byte("package main\n\nimport \"fix/internal/a\"\n\nfunc main() { _ = a.Read(&a.T{Remote: 1}, a.Origin) }\n")},
}

// runsFixture plants two direct runs a layer could make: a method value
// call with a nil environment, which the grep this replaced missed, and a
// RunRet64.
var runsFixture = fstest.MapFS{
	"go.mod": {Data: []byte("module fix\n")},
	"internal/ebpf/ebpf.go": {Data: []byte(`package ebpf

type Ctx struct{}

type Program struct{}

func (p *Program) Run(ctx *Ctx, env any) uint32 { return 0 }

func (p *Program) RunRet64(ctx *Ctx, env any) uint64 { return 0 }
`)},
	"internal/hook/hook.go": {Data: []byte("package hook\n\nimport \"fix/internal/ebpf\"\n\nfunc Run(p *ebpf.Program) uint32 { return p.Run(nil, nil) }\n")},
	"internal/nic/nic.go": {Data: []byte(`package nic

import "fix/internal/ebpf"

func plantedDirectRun(p *ebpf.Program, ctx *ebpf.Ctx) { p.Run(ctx, nil) }

func plantedRet64(p *ebpf.Program) { p.RunRet64(nil, nil) }
`)},
}

// srcTree is every non-test file of every package of every module in a
// tree (a module is a directory holding go.mod; the one at the root is the
// main module), parsed and type-checked once for every report below.
type srcTree struct {
	mainModule string
	pkgs       []*srcPkg // by import path
}

type srcPkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// repoTree is this repository, loaded once for every gate.
var repoTree = sync.OnceValues(func() (*srcTree, error) { return loadTree(os.DirFS(".")) })

// internalQual is the qualified-name prefix of a package under the main
// module's internal/: its path below internal/.
func (tr *srcTree) internalQual(p *srcPkg) (string, bool) {
	return strings.CutPrefix(p.path, tr.mainModule+"/internal/")
}

// loadTree parses and type-checks fsys. Imports from outside fsys resolve
// through the go command's export data.
func loadTree(fsys fs.FS) (*srcTree, error) {
	modules := map[string]string{} // dir → module path
	goFiles := map[string][]string{}
	err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return fs.SkipDir
			}
			return nil
		}
		switch {
		case name == "go.mod":
			src, err := fs.ReadFile(fsys, p)
			if err != nil {
				return err
			}
			for _, line := range strings.Split(string(src), "\n") {
				if mod, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					modules[path.Dir(p)] = strings.TrimSpace(mod)
				}
			}
		case strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go"):
			goFiles[path.Dir(p)] = append(goFiles[path.Dir(p)], p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tree := &srcTree{mainModule: modules["."]}
	if tree.mainModule == "" {
		return nil, fmt.Errorf("no go.mod at the root")
	}

	fset := token.NewFileSet()
	pkgs := map[string]*srcPkg{} // by import path
	external := map[string]bool{}
	for dir, files := range goFiles {
		modDir := dir
		for modules[modDir] == "" && modDir != "." {
			modDir = path.Dir(modDir)
		}
		p := &srcPkg{path: path.Join(modules[modDir], strings.TrimPrefix(dir, modDir))}
		for _, name := range files {
			src, err := fs.ReadFile(fsys, name)
			if err != nil {
				return nil, err
			}
			f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
			for _, imp := range f.Imports {
				external[strings.Trim(imp.Path.Value, `"`)] = true
			}
		}
		pkgs[p.path] = p
		tree.pkgs = append(tree.pkgs, p)
	}
	slices.SortFunc(tree.pkgs, func(a, b *srcPkg) int { return strings.Compare(a.path, b.path) })
	for p := range pkgs {
		delete(external, p)
	}

	var imports []string
	for p := range external {
		imports = append(imports, p)
	}
	exports, err := exportData(imports)
	if err != nil {
		return nil, err
	}
	gc := importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) {
		if exports[p] == "" {
			return nil, fmt.Errorf("no export data for %s", p)
		}
		return os.Open(exports[p])
	})
	var check func(p *srcPkg) error
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		p := pkgs[path]
		if p == nil {
			return gc.Import(path)
		}
		if p.types == nil {
			if err := check(p); err != nil {
				return nil, err
			}
		}
		return p.types, nil
	})}
	check = func(p *srcPkg) error {
		p.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		var err error
		p.types, err = conf.Check(p.path, fset, p.files, p.info)
		return err
	}
	for _, p := range tree.pkgs {
		if p.types == nil {
			if err := check(p); err != nil {
				return nil, err
			}
		}
	}
	return tree, nil
}

// eachField calls fn for every exported field of every struct type written
// in a top-level type declaration of p, nested struct types included.
func eachField(p *srcPkg, fn func(typeName string, id *ast.Ident, field *ast.Field)) {
	for _, f := range p.files {
		for _, decl := range f.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gen.Specs {
				spec, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				ast.Inspect(spec.Type, func(n ast.Node) bool {
					if st, ok := n.(*ast.StructType); ok {
						for _, field := range st.Fields.List {
							for _, id := range field.Names {
								if id.IsExported() {
									fn(spec.Name.Name, id, field)
								}
							}
						}
					}
					return true
				})
			}
		}
	}
}

// exportDecl is one exported declaration in scope and the source ranges
// whose uses of it do not count: its own declaration and, for a type, the
// receivers of its methods.
type exportDecl struct {
	name    string
	own     [][2]token.Pos
	reached bool
}

func (d *exportDecl) isOwn(pos token.Pos) bool {
	return slices.ContainsFunc(d.own, func(r [2]token.Pos) bool { return r[0] <= pos && pos < r[1] })
}

// unreachedExports returns, sorted, the qualified names of the exported
// declarations under the main module's internal/ that no non-test file
// reaches.
func unreachedExports(tree *srcTree) []string {
	// The declarations in scope.
	decls := map[types.Object]*exportDecl{}
	var methods []*types.Func
	receivers := map[*types.TypeName][][2]token.Pos{}
	declare := func(obj types.Object, name string, node ast.Node) {
		decls[obj] = &exportDecl{name: name, own: [][2]token.Pos{{node.Pos(), node.End()}}}
	}
	for _, p := range tree.pkgs {
		qual, ok := tree.internalQual(p)
		if !ok {
			continue
		}
		eachField(p, func(typeName string, id *ast.Ident, field *ast.Field) {
			declare(p.info.Defs[id], qual+"."+typeName+"."+id.Name, field)
		})
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[decl.Name].(*types.Func)
					if decl.Recv == nil {
						if decl.Name.IsExported() {
							declare(fn, qual+"."+decl.Name.Name, decl)
						}
						continue
					}
					recv := receiverType(fn)
					receivers[recv.Obj()] = append(receivers[recv.Obj()], [2]token.Pos{decl.Recv.Pos(), decl.Recv.End()})
					if decl.Name.IsExported() {
						declare(fn, qual+"."+recv.Obj().Name()+"."+decl.Name.Name, decl)
						methods = append(methods, fn)
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							if spec.Name.IsExported() {
								declare(p.info.Defs[spec.Name], qual+"."+spec.Name.Name, spec)
							}
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								if id.IsExported() {
									declare(p.info.Defs[id], qual+"."+id.Name, spec)
								}
							}
						}
					}
				}
			}
		}
	}
	for tn, own := range receivers {
		if d := decls[tn]; d != nil {
			d.own = append(d.own, own...)
		}
	}

	// Uses from every non-test file, keyed struct literals included; an
	// unkeyed struct literal uses every field.
	for _, p := range tree.pkgs {
		for id, obj := range p.info.Uses {
			if d := decls[origin(obj)]; d != nil && !d.isOwn(id.Pos()) {
				d.reached = true
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.CompositeLit); ok && isUnkeyed(lit) {
					if st := structOf(p.info.TypeOf(lit)); st != nil {
						for i := range st.NumFields() {
							if d := decls[st.Field(i)]; d != nil {
								d.reached = true
							}
						}
					}
				}
				return true
			})
		}
	}

	// A method is reached through any interface in sight that holds it.
	var ifaces []*types.Interface
	addIface := func(t types.Type) {
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return
		}
		if it, ok := t.Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	addScope := func(s *types.Scope) {
		for _, name := range s.Names() {
			if tn, ok := s.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, p := range tree.pkgs {
		for _, imp := range p.types.Imports() {
			addScope(imp.Scope())
		}
		for _, obj := range p.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				addIface(it)
			}
		}
	}
	for _, fn := range methods {
		d := decls[fn]
		if d.reached {
			continue
		}
		recv := receiverType(fn)
		d.reached = slices.ContainsFunc(ifaces, func(it *types.Interface) bool {
			for i := range it.NumMethods() {
				if it.Method(i).Name() == fn.Name() {
					return types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)
				}
			}
			return false
		})
	}

	var unreached []string
	for _, d := range decls {
		if !d.reached {
			unreached = append(unreached, d.name)
		}
	}
	slices.Sort(unreached)
	return unreached
}

// unwrittenFields returns, sorted, the qualified names of the exported
// struct fields declared under the main module's internal/ or in its root
// package that some non-test file reads and none writes.
func unwrittenFields(tree *srcTree) []string {
	fields := map[types.Object]string{}
	for _, p := range tree.pkgs {
		qual, ok := tree.internalQual(p)
		if p.path == tree.mainModule {
			qual, ok = p.types.Name(), true
		}
		if !ok {
			continue
		}
		eachField(p, func(typeName string, id *ast.Ident, _ *ast.Field) {
			fields[p.info.Defs[id]] = qual + "." + typeName + "." + id.Name
		})
	}

	read, written := map[types.Object]bool{}, map[types.Object]bool{}
	for _, p := range tree.pkgs {
		for _, obj := range p.info.Uses {
			read[origin(obj)] = true
		}
		// writeThrough marks every field a selector chain passes through.
		writeThrough := func(e ast.Expr) {
			for e != nil {
				switch x := e.(type) {
				case *ast.SelectorExpr:
					written[origin(p.info.Uses[x.Sel])] = true
					e = x.X
				case *ast.ParenExpr:
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				default:
					e = nil
				}
			}
		}
		for _, f := range p.files {
			// defaults holds the assignments of zero-value default arms.
			defaults := map[*ast.AssignStmt]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IfStmt:
					for _, a := range defaultArm(n) {
						defaults[a] = true
					}
				case *ast.CompositeLit:
					st := structOf(p.info.TypeOf(n))
					if st == nil {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							written[origin(p.info.Uses[kv.Key.(*ast.Ident)])] = true
						} else {
							written[origin(st.Field(i))] = true
						}
					}
				case *ast.AssignStmt:
					if defaults[n] {
						break
					}
					for _, lhs := range n.Lhs {
						writeThrough(lhs)
					}
				case *ast.IncDecStmt:
					writeThrough(n.X)
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						writeThrough(n.Key)
						writeThrough(n.Value)
					}
				case *ast.CallExpr:
					// A pointer method on an addressable value takes its
					// address: t.Gets.Add(1) is (&t.Gets).Add(1).
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						break
					}
					if s := p.info.Selections[sel]; s != nil && s.Kind() == types.MethodVal && !s.Indirect() {
						if _, ptr := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
							writeThrough(sel.X)
						}
					}
				}
				return true
			})
		}
	}

	var unwritten []string
	for obj, name := range fields {
		if read[obj] && !written[obj] {
			unwritten = append(unwritten, name)
		}
	}
	slices.Sort(unwritten)
	return unwritten
}

// defaultArm returns the assignments of n's body to the tested selector
// when n is a zero-value default arm: if x.F == 0 (or "") { x.F = … }, no
// else.
func defaultArm(n *ast.IfStmt) []*ast.AssignStmt {
	cond, ok := n.Cond.(*ast.BinaryExpr)
	if !ok || cond.Op != token.EQL || n.Else != nil {
		return nil
	}
	sel, ok := cond.X.(*ast.SelectorExpr)
	lit, isLit := cond.Y.(*ast.BasicLit)
	if !ok || !isLit || (lit.Value != "0" && lit.Value != `""`) {
		return nil
	}
	var arm []*ast.AssignStmt
	for _, st := range n.Body.List {
		if a, ok := st.(*ast.AssignStmt); ok && a.Tok == token.ASSIGN && len(a.Lhs) == 1 &&
			types.ExprString(a.Lhs[0]) == types.ExprString(sel) {
			arm = append(arm, a)
		}
	}
	return arm
}

// directRuns lists, sorted, every package under the main module's
// internal/ other than ebpf, hook and experiments whose non-test files run
// a program without a hook point: (*ebpf.Program).Run or RunRet64.
func directRuns(tree *srcTree) []string {
	runners := map[types.Object]string{}
	for _, p := range tree.pkgs {
		if qual, _ := tree.internalQual(p); qual != "ebpf" {
			continue
		}
		tn, ok := p.types.Scope().Lookup("Program").(*types.TypeName)
		if !ok {
			continue
		}
		for _, name := range []string{"Run", "RunRet64"} {
			if obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), false, p.types, name); obj != nil {
				runners[obj] = "ebpf.Program." + name
			}
		}
	}
	calls := map[string]bool{}
	for _, p := range tree.pkgs {
		qual, ok := tree.internalQual(p)
		if !ok || qual == "ebpf" || qual == "hook" || qual == "experiments" {
			continue
		}
		for _, obj := range p.info.Uses {
			if name := runners[obj]; name != "" {
				calls[qual+" calls "+name] = true
			}
		}
	}
	return sortedKeys(calls)
}

func isUnkeyed(lit *ast.CompositeLit) bool {
	if len(lit.Elts) == 0 {
		return false
	}
	_, keyed := lit.Elts[0].(*ast.KeyValueExpr)
	return !keyed
}

// structOf is the struct a composite literal of type t builds, or nil. An
// elided &T in a []*T literal has type *T.
func structOf(t types.Type) *types.Struct {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

// exportData maps each of the given import paths and their dependencies to
// the file holding its compiled export data.
func exportData(paths []string) (map[string]string, error) {
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}, paths...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v: %s", err, stderr.Bytes())
	}
	files := map[string]string{}
	for _, line := range bytes.Split(out, []byte("\n")) {
		if p, file, ok := bytes.Cut(line, []byte("\t")); ok {
			files[string(p)] = string(file)
		}
	}
	return files, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func receiverType(fn *types.Func) *types.Named {
	t := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named)
}

// origin maps an instantiated generic function or field back to its
// declaration.
func origin(obj types.Object) types.Object {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin()
	case *types.Var:
		return obj.Origin()
	}
	return obj
}
