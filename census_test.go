package haocl_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mutexCensus pins the runtime's mutexes per package, counted as
// scripts/counters.go counts them.
var mutexCensus = []struct {
	dir  string
	pins int
}{
	{"internal/core", 12},
	{"internal/node", 5},
	{"internal/protocol", 0},
	{"internal/transport", 4},
}

// TestMutexCensus counts the non-test declarations of sync.Mutex and
// sync.RWMutex — struct fields, embedded or named, and variables — in each
// runtime package and holds them to mutexCensus, so a lock cannot be added
// without the diff saying so.
func TestMutexCensus(t *testing.T) {
	fset := token.NewFileSet()
	for _, c := range mutexCensus {
		dir, want := c.dir, c.pins
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.Field:
					if isMutex(x.Type) {
						got += max(len(x.Names), 1)
					}
				case *ast.ValueSpec:
					typ := x.Type
					for _, v := range x.Values {
						if lit, ok := v.(*ast.CompositeLit); ok {
							typ = lit.Type
						}
					}
					if isMutex(typ) {
						got += len(x.Names)
					}
				}
				return true
			})
		}
		if got != want {
			t.Errorf("%s declares %d mutexes, the census pins %d: a change that adds a lock raises its pin in the same diff and says in CHANGES.md why the owner's lock will not do; one that removes a lock lowers it",
				dir, got, want)
		}
	}
}

// isMutex reports whether typ is sync.Mutex or sync.RWMutex, or an array
// of either.
func isMutex(typ ast.Expr) bool {
	for {
		switch x := typ.(type) {
		case *ast.ArrayType:
			typ = x.Elt
		case *ast.SelectorExpr:
			pkg, ok := x.X.(*ast.Ident)
			return ok && pkg.Name == "sync" && (x.Sel.Name == "Mutex" || x.Sel.Name == "RWMutex")
		default:
			return false
		}
	}
}
