package syrup_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDocsNameOnlyWhatExists: the documents a reader builds and verifies
// from may only name things that exist. README.md, DESIGN.md, the verify
// skill and the Makefile's own lines (comments excepted) are scanned for
//
//   - internal/… and cmd/… paths, and backticked *.go file names;
//   - `make <target>` invocations;
//   - Test*/Fuzz*/Benchmark* identifiers, which must be a test function or
//     a prefix of one (how -run patterns and "TestZeroAlloc*" name groups);
//
// and any that no longer exists fails the test. History files
// (EXPERIMENTS.md, CHANGES.md, ROADMAP.md) are exempt: they describe what
// was.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	targetRe := regexp.MustCompile(`^([a-z][a-z0-9-]*):`)
	var makeLines []string // everything but comments
	for _, line := range strings.Split(string(makefile), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		makeLines = append(makeLines, line)
		if m := targetRe.FindStringSubmatch(line); m != nil {
			targets[m[1]] = true
		}
	}

	var tests []string           // every Test/Fuzz/Benchmark function in the tree
	goFiles := map[string]bool{} // base names of every .go file
	funcRe := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return fs.SkipDir // .git, the benchmark's build cache
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		goFiles[d.Name()] = true
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range funcRe.FindAllSubmatch(src, -1) {
				tests = append(tests, string(m[1]))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var (
		pathRe   = regexp.MustCompile(`\b(?:internal|cmd)/[\w./-]+`)
		goFileRe = regexp.MustCompile("`([\\w./-]+\\.go)`")
		testRe   = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*`)
		// `make a b` in running text, or `$ make a` in a console block.
		makeRe = regexp.MustCompile("(?:`|\\$ )make ([a-z][a-z0-9-]*(?: [a-z][a-z0-9-]*)*)")
	)
	reported := map[string]bool{}
	missing := func(doc, name, why string) {
		if msg := doc + " names " + name + ", " + why; !reported[msg] {
			reported[msg] = true
			t.Error(msg)
		}
	}
	check := func(doc, text string) {
		for _, p := range pathRe.FindAllString(text, -1) {
			if p = strings.TrimRight(p, "./-"); !exists(p) {
				missing(doc, p, "which does not exist")
			}
		}
		for _, m := range goFileRe.FindAllStringSubmatch(text, -1) {
			if !exists(m[1]) && !goFiles[filepath.Base(m[1])] {
				missing(doc, m[1], "which does not exist")
			}
		}
		for _, name := range testRe.FindAllString(text, -1) {
			if !slices.ContainsFunc(tests, func(fn string) bool { return strings.HasPrefix(fn, name) }) {
				missing(doc, name, "which no test function is or starts with")
			}
		}
		for _, m := range makeRe.FindAllStringSubmatch(text, -1) {
			for _, target := range strings.Fields(m[1]) {
				if !targets[target] {
					missing(doc, "`make "+target+"`", "which the Makefile does not define")
				}
			}
		}
	}
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		check(doc, string(text))
	}
	// The Makefile's own lines hold package paths and -run patterns (a
	// shell variable or glob ends a path as far as pathRe is concerned).
	check("Makefile", strings.Join(makeLines, "\n"))
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
