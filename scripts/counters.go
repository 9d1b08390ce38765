//go:build ignore

// counters prints the repository's tracked size counters under one fixed
// definition, so that successive measurements can be compared. Run it from
// the repository root:
//
//	go run scripts/counters.go
//
// It counts:
//   - lines: every line of every non-test .go file outside benchmark/
//     (a separate module), testdata fixtures included;
//   - runtime lines: the same, for internal/{core,node,protocol,transport};
//   - mutexes: non-test declarations of type sync.Mutex or sync.RWMutex
//     (struct fields, embedded or named, and variables), per package
//     directory, testdata excluded;
//   - pools: the same, for sync.Pool and recycle.Pool; an array counts
//     once;
//   - exported identifiers of every importable library package outside
//     internal/ (the root package haocl) and of internal/core: exported
//     package-level names plus exported methods on exported types.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

var runtimeDirs = map[string]bool{
	"internal/core": true, "internal/node": true, "internal/protocol": true, "internal/transport": true,
}

func main() {
	var lines, runtimeLines int
	mutexes, pools := map[string]int{}, map[string]int{}
	exported := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "benchmark" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n := strings.Count(string(src), "\n")
		dir := filepath.ToSlash(filepath.Dir(path))
		lines += n
		if runtimeDirs[dir] {
			runtimeLines += n
		}
		if strings.Contains(path, "testdata") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			return err
		}
		countDecls(f, func(kind string, n int) {
			if kind == "mutex" {
				mutexes[dir] += n
			} else {
				pools[dir+" "+kind] += n
			}
		})
		if f.Name.Name != "main" && (!strings.HasPrefix(dir, "internal/") || dir == "internal/core") {
			exported[f.Name.Name] += countExported(f)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "counters:", err)
		os.Exit(1)
	}
	fmt.Printf("non-test Go lines outside benchmark/: %d\n", lines)
	fmt.Printf("non-test lines of core+node+protocol+transport: %d\n", runtimeLines)
	fmt.Println("non-test sync.Mutex/RWMutex declarations:")
	for _, dir := range sortedKeys(mutexes) {
		fmt.Printf("  %-28s %d\n", dir, mutexes[dir])
	}
	fmt.Println("non-test pool declarations:")
	for _, key := range sortedKeys(pools) {
		fmt.Printf("  %-41s %d\n", key, pools[key])
	}
	fmt.Println("exported identifiers:")
	for _, pkg := range sortedKeys(exported) {
		fmt.Printf("  %-28s %d\n", pkg, exported[pkg])
	}
}

// countDecls reports each mutex or pool declaration in f — a struct field,
// embedded or named, or a variable — with its kind and number of names.
func countDecls(f *ast.File, add func(kind string, n int)) {
	ast.Inspect(f, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.Field:
			if kind := declKind(x.Type, nil); kind != "" {
				add(kind, max(len(x.Names), 1))
			}
		case *ast.ValueSpec:
			if kind := declKind(x.Type, x.Values); kind != "" {
				add(kind, len(x.Names))
			}
		}
		return true
	})
}

// declKind names what a declaration of type typ with values declares:
// "mutex", "sync.Pool", "recycle.Pool" or nothing.
func declKind(typ ast.Expr, values []ast.Expr) string {
	for _, v := range values {
		if lit, ok := v.(*ast.CompositeLit); ok {
			typ = lit.Type
		}
	}
	for {
		switch x := typ.(type) {
		case *ast.ArrayType:
			typ = x.Elt
		case *ast.IndexExpr:
			typ = x.X
		case *ast.SelectorExpr:
			pkg, _ := x.X.(*ast.Ident)
			switch name := x.Sel.Name; {
			case pkg == nil:
			case pkg.Name == "sync" && (name == "Mutex" || name == "RWMutex"):
				return "mutex"
			case pkg.Name == "sync" && name == "Pool":
				return "sync.Pool"
			case pkg.Name == "recycle" && name == "Pool":
				return "recycle.Pool"
			}
			return ""
		default:
			return ""
		}
	}
}

// countExported counts f's exported package-level names and its exported
// methods on exported receiver types.
func countExported(f *ast.File) int {
	n := 0
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil || receiverName(d.Recv.List[0].Type).IsExported() {
				n++
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						n++
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							n++
						}
					}
				}
			}
		}
	}
	return n
}

// receiverName strips pointers and type parameters off a receiver type.
func receiverName(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return ast.NewIdent("_")
		}
	}
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
