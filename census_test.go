package haocl_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
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

// TestNodesBootInOnePlace holds every in-process cluster to one boot
// sequence: outside the node itself, the node daemon and the separate
// benchmark module, no Go file — tests included — calls node.New; it
// serves nodes through inproc.Serve.
func TestNodesBootInOnePlace(t *testing.T) {
	allowed := []string{"internal/node", "internal/cluster/inproc", "cmd/haocl-node"}
	fset := token.NewFileSet()
	var sites []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path == "benchmark":
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || slices.Contains(allowed, filepath.ToSlash(filepath.Dir(path))):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "github.com/haocl-project/haocl/internal/node" {
				local = "node"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && local != "" {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "New" {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == local {
						sites = append(sites, fset.Position(call.Pos()).String())
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range sites {
		t.Errorf("%s boots a node by hand: serve in-process nodes with inproc.Serve (internal/cluster/inproc)", site)
	}
}
