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
	"testing"
	"testing/fstest"
)

// exportAllow names the exported declarations under internal/ that no
// non-test file reaches and that stay exported anyway, one concept per row.
// A row's names are space-separated patterns over qualified names — the
// package path below internal/, then the type, then the member:
// "ebpf.Program.RunInterp" — matched by path.Match; a pattern naming a
// type also covers its methods and fields. A row that matches nothing
// unreached fails the test, so the list only shrinks.
var exportAllow = []struct{ names, reason string }{
	{"ebpf.Program.RunInterp", "the reference decoding: the differential oracle Run is checked against"},
	{"ebpf.MustLoad", "test vocabulary: load-or-panic for the hand-built programs of ebpf and nic tests"},
	{"ebpf.Program.Disassemble", "test vocabulary: the ebpf and policy round-trip tests compare loaded streams with it"},
	{"ebpf.ALUReg ebpf.ALU32Imm ebpf.ALU32Reg ebpf.JmpReg", "the instruction builders' register and 32-bit forms: the rest of the family is reached, tests use all of it"},
	{"ebpf.R[4-9]", "the register file: no program built in Go names these registers"},
	{"ebpf.AsmFile.Text", "round-trip oracle: the ebpf and policy tests re-assemble its output to the same stream"},
	{"ghost.Agent.Stopped", "revocation's observable: syrupd's revoke test asserts the agent quiesces and resumes"},
	{"kernel.Thread.Exit kernel.Thread.Yield", "simulated servers loop forever; the finite threads of the scheduler tests exit and yield"},
	{"metrics.Histogram.Reset", "the reuse HistogramWindow and the sampler are written to survive; their tests drive it"},
	{"netstack.Stack.TCPGroup netstack.TCPGroup netstack.Listener", "paper Fig. 4's TCP SYN / KCM Socket Select row, unit-tested only (DESIGN.md says why)"},
	{"policy.FIFO", "the baseline ghOSt policy of the facade, decision-trace and policy tests"},
}

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
		got, err := unreachedExports(exportsFixture)
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{"a.Planted"}; !slices.Equal(got, want) {
			t.Fatalf("unreached = %q, want %q", got, want)
		}
	})

	if len(exportAllow) > 20 {
		t.Errorf("%d allow-list rows; the budget is 20", len(exportAllow))
	}
	unreached, err := unreachedExports(os.DirFS("."))
	if err != nil {
		t.Fatal(err)
	}
	used := make([]bool, len(exportAllow))
	for _, name := range unreached {
		i := slices.IndexFunc(exportAllow, func(row struct{ names, reason string }) bool {
			return slices.ContainsFunc(strings.Fields(row.names), func(pattern string) bool {
				ok, _ := path.Match(pattern, name)
				return ok || strings.HasPrefix(name, pattern+".")
			})
		})
		if i < 0 {
			t.Errorf("%s is exported but no non-test file reaches it: delete it, unexport it, or give it an exportAllow row", name)
			continue
		}
		used[i] = true
	}
	for i, row := range exportAllow {
		if !used[i] {
			t.Errorf("exportAllow row %q matches no unreached name: delete the row", row.names)
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

type srcPkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
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

// unreachedExports type-checks every non-test file of every package of
// every module in fsys (a module is a directory holding go.mod; the one at
// the root is the main module) and returns, sorted, the qualified names of
// the exported declarations under the main module's internal/ that no
// non-test file reaches. Imports from outside fsys resolve through the go
// command's export data.
func unreachedExports(fsys fs.FS) ([]string, error) {
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
	mainModule := modules["."]
	if mainModule == "" {
		return nil, fmt.Errorf("no go.mod at the root")
	}

	fset := token.NewFileSet()
	pkgs := map[string]*srcPkg{} // by import path
	var sorted []*srcPkg
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
		sorted = append(sorted, p)
	}
	slices.SortFunc(sorted, func(a, b *srcPkg) int { return strings.Compare(a.path, b.path) })
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
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		var err error
		p.types, err = conf.Check(p.path, fset, p.files, p.info)
		return err
	}
	for _, p := range sorted {
		if p.types == nil {
			if err := check(p); err != nil {
				return nil, err
			}
		}
	}

	// The declarations in scope.
	decls := map[types.Object]*exportDecl{}
	var methods []*types.Func
	receivers := map[*types.TypeName][][2]token.Pos{}
	declare := func(obj types.Object, name string, node ast.Node) {
		decls[obj] = &exportDecl{name: name, own: [][2]token.Pos{{node.Pos(), node.End()}}}
	}
	for _, p := range sorted {
		if !strings.HasPrefix(p.path, mainModule+"/internal/") {
			continue
		}
		qual := strings.TrimPrefix(p.path, mainModule+"/internal/")
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
							ast.Inspect(spec.Type, func(n ast.Node) bool {
								if st, ok := n.(*ast.StructType); ok {
									for _, field := range st.Fields.List {
										for _, id := range field.Names {
											if id.IsExported() {
												declare(p.info.Defs[id], qual+"."+spec.Name.Name+"."+id.Name, field)
											}
										}
									}
								}
								return true
							})
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
	for _, p := range sorted {
		for id, obj := range p.info.Uses {
			if d := decls[origin(obj)]; d != nil && !d.isOwn(id.Pos()) {
				d.reached = true
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok || len(lit.Elts) == 0 {
					return true
				}
				if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
					return true
				}
				if st, ok := p.info.TypeOf(lit).Underlying().(*types.Struct); ok {
					for i := range st.NumFields() {
						if d := decls[st.Field(i)]; d != nil {
							d.reached = true
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
	for _, p := range sorted {
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
	return unreached, nil
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
