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
