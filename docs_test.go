package ucqn

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
