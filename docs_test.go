package ucqn

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// docPath is a backticked repo path in a document: a file name with one
// of the extensions the repository keeps, optionally under directories.
var docPath = regexp.MustCompile("`([A-Za-z0-9_./-]+\\.(?:go|json|md|sh|yml))`")

// The documents a reader starts from cannot name a file that is gone.
// A backticked path resolves when it exists from the repository root or
// is the trailing part of some file's path (`engine/eval.go`,
// `runtime.go`), as the documents abbreviate them.
func TestDocsNameExistingPaths(t *testing.T) {
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if !d.IsDir() {
			files = append(files, "/"+filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docPath.FindAllStringSubmatch(string(data), -1) {
			if !resolves(m[1], files) {
				t.Errorf("%s names %s, which no file of the repository is", doc, m[1])
			}
		}
	}
}

var (
	// codeSpan is a fenced block or an inline code span of a document.
	codeSpan = regexp.MustCompile("(?s)```.*?```|`[^`]+`")
	// docTest is a Go test, benchmark or fuzz target's name.
	docTest = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	// testFunc declares one in a _test.go file.
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
)

// The documents cannot send a reader to a test that is gone: every
// Test…, Benchmark… or Fuzz… name in their code is a prefix of some
// such function of a _test.go file (a prefix, because they name
// families: `BenchmarkPaper`, `TestExample1..3`).
func TestDocsNameExistingTests(t *testing.T) {
	var funcs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			if err == nil && d.Name() == ".git" {
				return filepath.SkipDir
			}
			return err
		}
		data, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllStringSubmatch(string(data), -1) {
			funcs = append(funcs, m[1])
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpan.FindAllString(string(data), -1) {
			for _, name := range docTest.FindAllString(span, -1) {
				if !slices.ContainsFunc(funcs, func(f string) bool { return strings.HasPrefix(f, name) }) {
					t.Errorf("%s names %s, which no _test.go function is", doc, name)
				}
			}
		}
	}
}

// makeRun is a Makefile recipe's -run='…' test selection.
var makeRun = regexp.MustCompile(`-run='([^']*)'`)

// A smoke target selects its tests by name, so renaming a test would
// drop it from the smoke silently: every |-separated alternative of
// every -run='…' in the Makefile must match some Test… function of the
// packages its line tests.
func TestMakefileRunPatternsNameExistingTests(t *testing.T) {
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for n, line := range strings.Split(string(data), "\n") {
		m := makeRun.FindStringSubmatchIndex(line)
		if m == nil {
			continue
		}
		pattern := strings.ReplaceAll(line[m[2]:m[3]], "$$", "$")
		if pattern == "^$" {
			continue // benchmarks and fuzz targets only
		}
		var pkgs, tests []string
		for _, f := range strings.Fields(line[m[1]:]) {
			if f == "." || strings.HasPrefix(f, "./") {
				pkgs = append(pkgs, f)
			}
		}
		if len(pkgs) == 0 {
			t.Errorf("Makefile:%d: -run='%s' names no package", n+1, pattern)
		}
		for _, pkg := range pkgs {
			files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				src, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				for _, fm := range testFunc.FindAllStringSubmatch(string(src), -1) {
					if strings.HasPrefix(fm[1], "Test") {
						tests = append(tests, fm[1])
					}
				}
			}
		}
		for _, alt := range strings.Split(pattern, "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("Makefile:%d: -run alternative %q: %v", n+1, alt, err)
				continue
			}
			if !slices.ContainsFunc(tests, re.MatchString) {
				t.Errorf("Makefile:%d: -run alternative %q matches no Test function in %s", n+1, alt, strings.Join(pkgs, " "))
			}
			checked++
		}
	}
	if checked == 0 {
		t.Error("the Makefile selects no test by name; the pattern above no longer reads its recipes")
	}
}

// resolves reports whether some file's path is p or ends in /p.
func resolves(p string, files []string) bool {
	suffix := "/" + strings.TrimPrefix(p, "./")
	for _, f := range files {
		if strings.HasSuffix(f, suffix) {
			return true
		}
	}
	return false
}
