package syrup_test

import (
	"go/constant"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"syrup"
	"syrup/internal/syrupd"
)

// TestDocsNameOnlyWhatExists: the documents a reader builds and verifies
// from may only name things that exist. README.md, DESIGN.md, the verify
// skill and the Makefile's own lines (comments excepted) are scanned for
//
//   - internal/… and cmd/… paths, and backticked *.go file names;
//   - `make <target>` invocations;
//   - Test*/Fuzz*/Benchmark* identifiers, which must be a test function or
//     a prefix of one (how -run patterns and "TestZeroAlloc*" name groups);
//   - control-protocol requests, {"op":"…"}, whose op syrupd's Handle must
//     answer (a deleted op gets "unknown op");
//
// and any that no longer exists fails the test. History files
// (EXPERIMENTS.md, CHANGES.md, ROADMAP.md) are exempt: they describe what
// was. The fixture plants a deleted op in a document.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	idx, makeLines, err := indexRepo()
	if err != nil {
		t.Fatal(err)
	}
	t.Run("fixture", func(t *testing.T) {
		got := idx.problems("planted.md", `printf '%s\n' '{"op":"snapshot"}' '{"op":"stats","delta":true}' | nc -U /tmp/syrupd.sock`)
		want := []string{`planted.md names op "stats", which syrupd does not answer`}
		if !slices.Equal(got, want) {
			t.Fatalf("problems = %q, want %q", got, want)
		}
	})

	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range idx.problems(doc, string(text)) {
			t.Error(p)
		}
	}
	// The Makefile's own lines hold package paths and -run patterns (a
	// shell variable or glob ends a path as far as pathRe is concerned).
	for _, p := range idx.problems("Makefile", strings.Join(makeLines, "\n")) {
		t.Error(p)
	}
}

// repoIndex is what a document may name: the Makefile's targets, every
// Test/Fuzz/Benchmark function and .go file base name in the tree, and a
// fresh host's control server to ask about ops.
type repoIndex struct {
	targets map[string]bool
	tests   []string
	goFiles map[string]bool
	srv     *syrupd.Server
}

// indexRepo reads the index from the working tree, and returns the
// Makefile's lines other than comments for checking too.
func indexRepo() (*repoIndex, []string, error) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		return nil, nil, err
	}
	idx := &repoIndex{
		targets: map[string]bool{},
		goFiles: map[string]bool{},
		srv:     syrupd.NewServer(syrup.NewHost(syrup.HostConfig{}).Daemon),
	}
	targetRe := regexp.MustCompile(`^([a-z][a-z0-9-]*):`)
	var makeLines []string
	for _, line := range strings.Split(string(makefile), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		makeLines = append(makeLines, line)
		if m := targetRe.FindStringSubmatch(line); m != nil {
			idx.targets[m[1]] = true
		}
	}

	funcRe := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return fs.SkipDir // .git, the benchmark's build cache
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		idx.goFiles[d.Name()] = true
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range funcRe.FindAllSubmatch(src, -1) {
				idx.tests = append(idx.tests, string(m[1]))
			}
		}
		return nil
	})
	return idx, makeLines, err
}

var (
	pathRe   = regexp.MustCompile(`\b(?:internal|cmd)/[\w./-]+`)
	goFileRe = regexp.MustCompile("`([\\w./-]+\\.go)`")
	testRe   = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*`)
	// `make a b` in running text, or `$ make a` in a console block.
	makeRe = regexp.MustCompile("(?:`|\\$ )make ([a-z][a-z0-9-]*(?: [a-z][a-z0-9-]*)*)")
	opRe   = regexp.MustCompile(`\{\s*"op"\s*:\s*"([^"]*)"`)
)

// problems lists, once each and in order of appearance, every name in
// doc's text that does not exist.
func (idx *repoIndex) problems(doc, text string) []string {
	var out []string
	missing := func(name, why string) {
		if msg := doc + " names " + name + ", " + why; !slices.Contains(out, msg) {
			out = append(out, msg)
		}
	}
	for _, p := range pathRe.FindAllString(text, -1) {
		if p = strings.TrimRight(p, "./-"); !exists(p) {
			missing(p, "which does not exist")
		}
	}
	for _, m := range goFileRe.FindAllStringSubmatch(text, -1) {
		if !exists(m[1]) && !idx.goFiles[filepath.Base(m[1])] {
			missing(m[1], "which does not exist")
		}
	}
	for _, name := range testRe.FindAllString(text, -1) {
		if !slices.ContainsFunc(idx.tests, func(fn string) bool { return strings.HasPrefix(fn, name) }) {
			missing(name, "which no test function is or starts with")
		}
	}
	for _, m := range makeRe.FindAllStringSubmatch(text, -1) {
		for _, target := range strings.Fields(m[1]) {
			if !idx.targets[target] {
				missing("`make "+target+"`", "which the Makefile does not define")
			}
		}
	}
	for _, m := range opRe.FindAllStringSubmatch(text, -1) {
		if resp := idx.srv.Handle(&syrupd.Request{Op: m[1]}); strings.Contains(resp.Error, "unknown op") {
			missing("op "+strconv.Quote(m[1]), "which syrupd does not answer")
		}
	}
	return out
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// TestCalibrationTableMatchesCode: every row of DESIGN.md's "Calibration
// constants" table names a package-level constant as `pkg.name` (pkg is
// the package's name) and states its value, and the code must hold a
// constant of that name with that value. A duration is written in ns, µs or
// ms and compared in the simulator's nanoseconds; a bare number is the
// value itself. The fixture plants a wrong value and a name that is gone.
func TestCalibrationTableMatchesCode(t *testing.T) {
	tree, err := repoTree()
	if err != nil {
		t.Fatal(err)
	}
	t.Run("fixture", func(t *testing.T) {
		rows := "| `hook.RunCost` | 0.8 µs | planted |\n" +
			"| `netstack.backlogCap` | 1000 | right |\n" +
			"| `nic.noSuchCost` | 1 µs | gone |\n"
		got, n := calibrationProblems(tree, rows)
		want := []string{
			"`hook.RunCost` is 700, the row says 0.8 µs",
			"`nic.noSuchCost` is not a package-level constant",
		}
		if n != 3 || !slices.Equal(got, want) {
			t.Fatalf("%d rows, problems %q; want 3 rows, %q", n, got, want)
		}
	})

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "### Calibration constants\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "### Calibration constants" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	problems, n := calibrationProblems(tree, section)
	if n == 0 {
		t.Fatal("the calibration section has no constant rows")
	}
	for _, p := range problems {
		t.Error("DESIGN.md calibration table: " + p)
	}
}

// calibrationRowRe is one table row: | `pkg.name` | value [unit] | ...
var calibrationRowRe = regexp.MustCompile("(?m)^\\| `(\\w+)\\.(\\w+)` \\| ([0-9.]+)(?: (ns|µs|ms))? \\|")

// calibrationProblems checks every calibration row in text against tree's
// constants and returns the mismatches and the number of rows.
func calibrationProblems(tree *srcTree, text string) ([]string, int) {
	scale := map[string]int64{"": 1, "ns": 1, "µs": 1_000, "ms": 1_000_000}
	var out []string
	rows := calibrationRowRe.FindAllStringSubmatch(text, -1)
	for _, m := range rows {
		name, stated := "`"+m[1]+"."+m[2]+"`", strings.TrimSpace(m[3]+" "+m[4])
		var c *types.Const
		for _, p := range tree.pkgs {
			if p.types.Name() == m[1] {
				if obj, ok := p.types.Scope().Lookup(m[2]).(*types.Const); ok {
					c = obj
				}
			}
		}
		if c == nil {
			out = append(out, name+" is not a package-level constant")
			continue
		}
		kind := token.INT
		if strings.Contains(m[3], ".") {
			kind = token.FLOAT
		}
		want := constant.BinaryOp(constant.MakeFromLiteral(m[3], kind, 0), token.MUL, constant.MakeInt64(scale[m[4]]))
		if !constant.Compare(c.Val(), token.EQL, want) {
			out = append(out, name+" is "+c.Val().ExactString()+", the row says "+stated)
		}
	}
	return out, len(rows)
}
