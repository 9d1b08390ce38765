package analysis

import (
	"go/constant"
	"os"
	"path/filepath"
	"testing"
)

// TestLoaderHonoursBuildConstraints: the loader type-checks the files of
// the default build, as the go command does, so a constant declared once
// per side of a build constraint (race_on.go / race_off.go) is one
// declaration, not a redeclaration, and a //go:build ignore script is no
// package at all.
func TestLoaderHonoursBuildConstraints(t *testing.T) {
	root := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(root, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/p\n")
	write("on.go", "//go:build race\n\npackage p\n\nconst raceEnabled = true\n")
	write("off.go", "//go:build !race\n\npackage p\n\nconst raceEnabled = false\n")
	if err := os.Mkdir(filepath.Join(root, "script"), 0o755); err != nil {
		t.Fatal(err)
	}
	write("script/main.go", "//go:build ignore\n\npackage main\n")

	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := pkg.Pkg.Scope().Lookup("raceEnabled").(interface{ Val() constant.Value })
	if !ok || constant.BoolVal(c.Val()) {
		t.Fatalf("raceEnabled resolved to the race build's declaration, or to none")
	}
	dirs, err := l.Expand([]string{root + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 1 || dirs[0] != root {
		t.Fatalf("Expand found %v, want only the package root: the ignored script is no package", dirs)
	}
}
