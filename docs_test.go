package haocl_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testName matches a Go test, benchmark or fuzz target name.
var testName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*`)

// TestDocsCiteExistingTests: every Test…, Benchmark… and Fuzz… name the
// prose documents cite is a function in some _test.go file of the
// repository (the benchmark module included), so a renamed or deleted
// test cannot leave a document pointing at nothing.
func TestDocsCiteExistingTests(t *testing.T) {
	defined := make(map[string]bool)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(src), "\n") {
			if name, ok := strings.CutPrefix(line, "func "); ok {
				if m := testName.FindString(name); m != "" && strings.HasPrefix(name, m) {
					defined[m] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"DESIGN.md", "README.md", "CONTRIBUTING.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range testName.FindAllString(string(text), -1) {
			if !defined[name] {
				t.Errorf("%s cites %s, which no _test.go file defines", doc, name)
			}
		}
	}
}
