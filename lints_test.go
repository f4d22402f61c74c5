package syrup_test

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/fstest"
)

// TestMetricNamesAreLegal: every name given to an obs.Sampler series
// (Gauge, Rate, Histogram, WindowHistogram) or to a metrics.CounterValue
// is in [a-zA-Z_][a-zA-Z0-9_]*. Series names are what an SLO names, and
// `syrup-top -slo name:series[/denom]:target:budget` splits its value on
// ':' and '/', so a name holding either could never be watched; counters
// share the alphabet, so one vocabulary names both halves of a snapshot
// (DESIGN.md "Telemetry plane"). A constant name is
// checked whole; in a + chain built at run time ("latency_"+c.Name), each
// constant operand is. The calls are found by type, not by spelling.
func TestMetricNamesAreLegal(t *testing.T) {
	t.Run("fixture", func(t *testing.T) {
		tree, err := lintsTree()
		if err != nil {
			t.Fatal(err)
		}
		want := []string{`nic names metric "bad-name"`, `nic names metric "ok_Bad.x"`, `nic names metric "x-"`}
		if got := badMetricNames(tree); !slices.Equal(got, want) {
			t.Fatalf("bad names = %q, want %q", got, want)
		}
	})

	tree, err := repoTree()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range badMetricNames(tree) {
		t.Errorf("%s: metric names are [a-zA-Z_][a-zA-Z0-9_]*", bad)
	}
}

// TestNothingReadsTheEnvironment: policies take one path (verify, decode,
// walk) and no environment variable may fork it, or anything else. Outside
// the benchmark module, which pins its own build cache, no non-test file
// reads or writes the environment.
func TestNothingReadsTheEnvironment(t *testing.T) {
	t.Run("fixture", func(t *testing.T) {
		tree, err := lintsTree()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := envUses(tree), []string{"nic calls os.Getenv"}; !slices.Equal(got, want) {
			t.Fatalf("env uses = %q, want %q", got, want)
		}
	})

	tree, err := repoTree()
	if err != nil {
		t.Fatal(err)
	}
	for _, use := range envUses(tree) {
		t.Errorf("%s: no environment-variable switches outside benchmark/", use)
	}
}

// TestNoAmbientState: the telemetry, policy-execution, per-request
// datapath, event-engine and experiment-harness packages hold no state
// shared by every host in the process, which is how per-host attribution
// was lost once. No non-test code writes a package-level map there by index
// or delete (TestHostStateHasNoLocks keeps atomics and mutexes out of every
// package-level var). In sim and experiments a package-level var also needs
// an initializer: a plain scalar that exists only to be assigned later is
// the shape the last two toggles had (`var obsPeriod sim.Time`,
// `var poolWorkers int`). Lookup tables never written after their
// initializer pass.
func TestNoAmbientState(t *testing.T) {
	t.Run("fixture", func(t *testing.T) {
		want := []string{
			"obs.seen is a package-level map non-test code writes",
			"sim.planted has no initializer",
		}
		tree, err := lintsTree()
		if err != nil {
			t.Fatal(err)
		}
		if got := ambientState(tree); !slices.Equal(got, want) {
			t.Fatalf("ambient state = %q, want %q", got, want)
		}
	})

	tree, err := repoTree()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range ambientState(tree) {
		t.Errorf("%s: keep the state on the host that owns it", bad)
	}
}

// lockAllow has no rows: no host state takes a lock.
var lockAllow []allowRow

// TestHostStateHasNoLocks: a host is single-threaded, and another goroutine
// reaches it only through the mailbox of the loop that runs it,
// syrupd.Server.Serve (DESIGN.md "One owner per host"). So no
// package-level var and no field of a package-level struct type, declared
// in a non-test file under internal/ or in the facade, holds a sync.Mutex,
// sync.RWMutex, sync.Pool or sync/atomic value — itself, or through struct
// fields, arrays and slices of the repo's own types. Locals are not state:
// par's WaitGroup passes.
func TestHostStateHasNoLocks(t *testing.T) {
	t.Run("fixture", func(t *testing.T) {
		tree, err := lintsTree()
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"metrics.pool", "nic.meter.hits", "nic.meter.mu", "obs.hits"}
		if got := hostLocks(tree); !slices.Equal(got, want) {
			t.Fatalf("locks = %q, want %q", got, want)
		}
	})

	tree, err := repoTree()
	if err != nil {
		t.Fatal(err)
	}
	checkAllowed(t, lockAllow, 0, hostLocks(tree),
		"holds a mutex, a sync.Pool or an atomic: state a host owns is reached only through syrupd.Server's mailbox")
}

// serviceAllow are the fields that may hold a host's tracer, chaos
// injector or telemetry sampler.
var serviceAllow = []allowRow{
	{"hook.Host", "the one home of a host's engine, request tracer, chaos injector and telemetry sampler"},
	{"ebpf.Env.Faults", "the per-run copy a hook point takes from its Host before each run, for the helpers"},
	{"syrup.HostConfig.Trace experiments.RunConfig.Tracer experiments.TraceRun.Recorder", "inbound carriers: a recorder on its way into a Host being built, or back out to the caller"},
	{"apps/rocksdb.Config.Tracer", "the benchmark module sets it"},
}

// TestHostServicesLiveOnTheHost: a host's request tracer, chaos injector
// and telemetry sampler live on its hook.Host, and every layer reads them
// there (DESIGN.md "One owner per host"). So no package-level var and no
// field of a package-level struct type, declared in a non-test file under
// internal/ or in the facade, is a *trace.Recorder, a *faults.Injector or
// an *obs.Sampler, except the serviceAllow rows: a copy held anywhere else
// is a copy a setter has to keep in step, which is how a layer once went
// untraced and unarmed.
func TestHostServicesLiveOnTheHost(t *testing.T) {
	t.Run("fixture", func(t *testing.T) {
		tree, err := loadTree(servicesFixture)
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"hook.Host.Faults", "hook.Host.Obs", "hook.Host.Tracer", "nic.NIC.faults", "nic.NIC.sampler", "nic.NIC.tracer", "nic.spare"}
		if got := hostServices(tree); !slices.Equal(got, want) {
			t.Fatalf("services = %q, want %q", got, want)
		}
	})

	tree, err := repoTree()
	if err != nil {
		t.Fatal(err)
	}
	checkAllowed(t, serviceAllow, 4, hostServices(tree),
		"holds a tracer, a chaos injector or a sampler: read the one on the layer's hook.Host instead")
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	// metricPartRe is a constant operand after the first in a + chain.
	metricPartRe = regexp.MustCompile(`^[a-zA-Z0-9_]*$`)
)

// badMetricNames lists, sorted, every package of the tree that gives a
// sampler series or a counter reading an illegal name, with the name.
func badMetricNames(tree *srcTree) []string {
	namers := map[types.Object]bool{} // the Sampler methods whose first argument is a name
	var counterValue types.Type
	for _, p := range tree.pkgs {
		switch qual, _ := tree.internalQual(p); qual {
		case "obs":
			if tn, ok := p.types.Scope().Lookup("Sampler").(*types.TypeName); ok {
				for _, name := range []string{"Gauge", "Rate", "Histogram", "WindowHistogram"} {
					if obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), false, p.types, name); obj != nil {
						namers[obj] = true
					}
				}
			}
		case "metrics":
			if tn, ok := p.types.Scope().Lookup("CounterValue").(*types.TypeName); ok {
				counterValue = tn.Type()
			}
		}
	}

	bad := map[string]bool{}
	for _, p := range tree.pkgs {
		name := tree.qualName(p)
		// check reports the constant parts of a name expression; first says
		// whether e starts the name.
		var check func(e ast.Expr, first bool)
		check = func(e ast.Expr, first bool) {
			if tv := p.info.Types[e]; tv.Value != nil && tv.Value.Kind() == constant.String {
				re := metricPartRe
				if first {
					re = metricNameRe
				}
				if s := constant.StringVal(tv.Value); !re.MatchString(s) {
					bad[name+" names metric "+strconv.Quote(s)] = true
				}
				return
			}
			switch x := e.(type) {
			case *ast.ParenExpr:
				check(x.X, first)
			case *ast.BinaryExpr:
				if x.Op == token.ADD {
					check(x.X, first)
					check(x.Y, false)
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && namers[p.info.Uses[sel.Sel]] && len(n.Args) > 0 {
						check(n.Args[0], true)
					}
				case *ast.CompositeLit:
					if counterValue == nil || !types.Identical(p.info.TypeOf(n), counterValue) {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok && kv.Key.(*ast.Ident).Name == "Name" {
							check(kv.Value, true)
						} else if !ok && i == 0 {
							check(elt, true)
						}
					}
				}
				return true
			})
		}
	}
	return sortedKeys(bad)
}

// envFuncs are the os functions that read or write the environment.
var envFuncs = []string{"Clearenv", "Environ", "ExpandEnv", "Getenv", "LookupEnv", "Setenv", "Unsetenv"}

// envUses lists, sorted, every package outside the benchmark module whose
// non-test files touch the environment, with the function.
func envUses(tree *srcTree) []string {
	uses := map[string]bool{}
	for _, p := range tree.pkgs {
		if bench := tree.mainModule + "/benchmark"; p.path == bench || strings.HasPrefix(p.path, bench+"/") {
			continue
		}
		name := tree.qualName(p)
		for _, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "os" && slices.Contains(envFuncs, fn.Name()) {
				uses[name+" calls os."+fn.Name()] = true
			}
		}
	}
	return sortedKeys(uses)
}

// ambientPkgs are the packages under internal/ TestNoAmbientState covers;
// uninitialized are those where a package-level var also needs an
// initializer.
var (
	ambientPkgs   = []string{"metrics", "obs", "trace", "hook", "ebpf", "syrupd", "nic", "workload", "experiments", "sim"}
	uninitialized = []string{"experiments", "sim"}
)

// ambientState lists, sorted, every package-level var of ambientPkgs that
// is a map some non-test file writes or, in the uninitialized packages, has
// no initializer.
func ambientState(tree *srcTree) []string {
	bad := map[string]bool{}
	maps := map[types.Object]string{} // package-level maps in scope → qualified name
	for _, p := range tree.pkgs {
		qual, ok := tree.internalQual(p)
		if !ok || !slices.Contains(ambientPkgs, qual) {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				gen, ok := decl.(*ast.GenDecl)
				if !ok || gen.Tok != token.VAR {
					continue
				}
				for _, spec := range gen.Specs {
					spec := spec.(*ast.ValueSpec)
					for _, id := range spec.Names {
						obj := p.info.Defs[id]
						if obj == nil {
							continue
						}
						name := qual + "." + id.Name
						if _, ok := obj.Type().Underlying().(*types.Map); ok {
							maps[obj] = name
						}
						if len(spec.Values) == 0 && slices.Contains(uninitialized, qual) {
							bad[name+" has no initializer"] = true
						}
					}
				}
			}
		}
	}

	for _, p := range tree.pkgs {
		// written marks the package-level map an index expression writes.
		written := func(e ast.Expr) {
			ix, ok := ast.Unparen(e).(*ast.IndexExpr)
			if !ok {
				return
			}
			if id, ok := ast.Unparen(ix.X).(*ast.Ident); ok && maps[p.info.Uses[id]] != "" {
				bad[maps[p.info.Uses[id]]+" is a package-level map non-test code writes"] = true
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						written(lhs)
					}
				case *ast.IncDecStmt:
					written(n.X)
				case *ast.CallExpr:
					id, ok := ast.Unparen(n.Fun).(*ast.Ident)
					if !ok || len(n.Args) == 0 {
						break
					}
					if b, ok := p.info.Uses[id].(*types.Builtin); ok && (b.Name() == "delete" || b.Name() == "clear") {
						if m, ok := ast.Unparen(n.Args[0]).(*ast.Ident); ok && maps[p.info.Uses[m]] != "" {
							bad[maps[p.info.Uses[m]]+" is a package-level map non-test code writes"] = true
						}
					}
				}
				return true
			})
		}
	}
	return sortedKeys(bad)
}

// hostLocks lists, sorted, the qualified name of every package-level var
// and every field of a package-level struct type, declared in a non-test
// file under the main module's internal/ or in its root package, whose type
// holds a lock or an atomic.
func hostLocks(tree *srcTree) []string {
	var bad []string
	for _, p := range tree.pkgs {
		qual, ok := tree.internalQual(p)
		if p.path == tree.mainModule {
			qual, ok = p.types.Name(), true
		}
		if !ok {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Var:
				if tree.holdsLock(obj.Type(), map[types.Type]bool{}) {
					bad = append(bad, qual+"."+name)
				}
			case *types.TypeName:
				st, ok := obj.Type().Underlying().(*types.Struct)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := range st.NumFields() {
					if f := st.Field(i); tree.holdsLock(f.Type(), map[types.Type]bool{}) {
						bad = append(bad, qual+"."+name+"."+f.Name())
					}
				}
			}
		}
	}
	slices.Sort(bad)
	return bad
}

// hostServices lists, sorted, the qualified name of every package-level
// var and every field of a package-level struct type, declared in a non-test
// file under the main module's internal/ or in its root package, whose type
// is *trace.Recorder, *faults.Injector or *obs.Sampler.
func hostServices(tree *srcTree) []string {
	service := func(t types.Type) bool {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			return false
		}
		named, ok := ptr.Elem().(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return false
		}
		switch pkg, name := named.Obj().Pkg().Path(), named.Obj().Name(); {
		case pkg == tree.mainModule+"/internal/trace" && name == "Recorder",
			pkg == tree.mainModule+"/internal/faults" && name == "Injector",
			pkg == tree.mainModule+"/internal/obs" && name == "Sampler":
			return true
		}
		return false
	}
	var bad []string
	for _, p := range tree.pkgs {
		qual, ok := tree.internalQual(p)
		if p.path == tree.mainModule {
			qual, ok = p.types.Name(), true
		}
		if !ok {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Var:
				if service(obj.Type()) {
					bad = append(bad, qual+"."+name)
				}
			case *types.TypeName:
				st, ok := obj.Type().Underlying().(*types.Struct)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := range st.NumFields() {
					if f := st.Field(i); service(f.Type()) {
						bad = append(bad, qual+"."+name+"."+f.Name())
					}
				}
			}
		}
	}
	slices.Sort(bad)
	return bad
}

// holdsLock reports whether t is, or holds through struct fields, array
// and slice elements of the tree's own types, a sync.Mutex, sync.RWMutex,
// sync.Pool or sync/atomic value; a pointer is another owner's. Other
// packages' types are opaque: a sync.WaitGroup is built on an atomic, and
// it is no lock. seen guards against recursive types.
func (tr *srcTree) holdsLock(t types.Type, seen map[types.Type]bool) bool {
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
		switch pkg, name := named.Obj().Pkg().Path(), named.Obj().Name(); {
		case pkg == "sync/atomic", pkg == "sync" && (name == "Mutex" || name == "RWMutex" || name == "Pool"):
			return true
		case pkg != tr.mainModule && !strings.HasPrefix(pkg, tr.mainModule+"/"):
			return false
		}
	}
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := range u.NumFields() {
			if tr.holdsLock(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return tr.holdsLock(u.Elem(), seen)
	case *types.Slice:
		return tr.holdsLock(u.Elem(), seen)
	}
	return false
}

// qualName is p's path below internal/, or its import path elsewhere.
func (tr *srcTree) qualName(p *srcPkg) string {
	if qual, ok := tr.internalQual(p); ok {
		return qual
	}
	return p.path
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// servicesFixture plants, for the host-services gate, a tracer field, a
// faults field and a sampler field on a layer and a package-level injector.
// What passes: a pointer to the layer's Host, a slice of recorders, a
// sampler's store and a local injector.
var servicesFixture = fstest.MapFS{
	"go.mod":                    {Data: []byte("module fix\n")},
	"internal/trace/trace.go":   {Data: []byte("package trace\n\ntype Recorder struct{}\n")},
	"internal/faults/faults.go": {Data: []byte("package faults\n\ntype Injector struct{}\n")},
	"internal/obs/obs.go":       {Data: []byte("package obs\n\ntype Sampler struct{}\n\ntype Store struct{}\n")},
	"internal/hook/hook.go": {Data: []byte(`package hook

import (
	"fix/internal/faults"
	"fix/internal/obs"
	"fix/internal/trace"
)

type Host struct {
	Tracer *trace.Recorder
	Faults *faults.Injector
	Obs    *obs.Sampler
}
`)},
	"internal/nic/nic.go": {Data: []byte(`package nic

import (
	"fix/internal/faults"
	"fix/internal/hook"
	"fix/internal/obs"
	"fix/internal/trace"
)

type NIC struct {
	host    *hook.Host
	tracer  *trace.Recorder
	faults  *faults.Injector
	sampler *obs.Sampler
	store   *obs.Store
	rings   []*trace.Recorder
}

var spare *faults.Injector

func Arm(n *NIC) {
	var inj *faults.Injector
	n.faults, spare = inj, inj
}
`)},
}

// lintsTree is lintsFixture, loaded once for the four gates above.
var lintsTree = sync.OnceValues(func() (*srcTree, error) { return loadTree(lintsFixture) })

// lintsFixture plants, for the metric-name gate, Gauge("bad-name"),
// Rate("ok_"+"Bad.x") and a bad constant after a run-time operand; for the
// environment gate, os.Getenv in a non-benchmark package; for the
// ambient-state gate, a package-level map written through m[k] = v and an
// uninitialized var in sim; for the lock gate, a mutex field, a slice of
// atomics in a field, a package-level atomic.Int64 and a package-level
// sync.Pool. What passes: run-time name parts, a legal CounterValue, a
// Gauge method of another type, os.Getenv in the benchmark module, a map
// only read, a multi-line initializer inside a var block (which the awk
// lint this replaced could not parse), a pointer to a mutex, and a local
// WaitGroup.
var lintsFixture = fstest.MapFS{
	"go.mod": {Data: []byte("module fix\n")},
	"internal/metrics/metrics.go": {Data: []byte(`package metrics

import "sync"

type CounterValue struct {
	Name  string
	Value uint64
}

var pool = sync.Pool{New: func() any { return new(int) }}
`)},
	"internal/obs/obs.go": {Data: []byte(`package obs

import "sync/atomic"

type Sampler struct{}

func (*Sampler) Gauge(name string, fn func() float64)  {}
func (*Sampler) Rate(name string, fn func() float64)   {}
func (*Sampler) Histogram(name string, h any)          {}
func (*Sampler) WindowHistogram(name string, h any)    {}

var hits atomic.Int64

var seen = map[string]int{}

var units = map[string]int{"us": 1000}

func Mark(k string) int {
	seen[k] = units[k]
	return len(seen)
}
`)},
	"internal/sim/sim.go": {Data: []byte(`package sim

var planted int

var (
	table = map[string]int{
		"a": 1,
		"b": 2,
	}
	limit = 3
)

func Limit() int { return table["a"] + limit + planted }
`)},
	"internal/nic/nic.go": {Data: []byte(`package nic

import (
	"os"
	"sync"
	"sync/atomic"

	"fix/internal/metrics"
	"fix/internal/obs"
)

type meter struct {
	mu   sync.Mutex
	hits []atomic.Uint64
	ring *sync.Mutex
}

func (*meter) Gauge(name string) {}

func Wait(n int) {
	var wg sync.WaitGroup
	wg.Add(n)
}

func Register(sa *obs.Sampler, class string) []metrics.CounterValue {
	sa.Gauge("bad-name", nil)
	sa.Rate("ok_"+"Bad.x", nil)
	sa.Histogram("latency_"+class, nil)
	sa.WindowHistogram("latency_"+class+"x-", nil)
	new(meter).Gauge("not-a-sampler")
	_ = os.Getenv("NIC_MODE")
	return []metrics.CounterValue{{Name: "nic_drops_" + class}, {"nic_" + class, 1}}
}
`)},
	"benchmark/go.mod":  {Data: []byte("module fix/benchmark\n")},
	"benchmark/main.go": {Data: []byte("package main\n\nimport \"os\"\n\nfunc main() { _ = os.Getenv(\"GOCACHE\") }\n")},
}
