package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Dir       string
	PkgPath   string
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Imports   []*Package // module-internal imports only
}

// Loader parses and type-checks packages of one module without the go
// command: module-internal imports resolve to source directories under the
// module root, and standard-library imports go through the source importer
// (the toolchain ships no pre-compiled export data to read). Cgo is
// disabled for the whole process so packages like net type-check against
// their pure-Go fallbacks.
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string
	ModulePath string

	std   types.Importer
	cache map[string]*Package // keyed by absolute directory
}

// NewLoader locates the module containing dir (by walking up to go.mod) and
// returns a loader for it.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", root)
	}
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModuleRoot: root,
		ModulePath: modPath,
		std:        importer.ForCompiler(fset, "source", nil),
		cache:      make(map[string]*Package),
	}, nil
}

// Expand resolves package patterns (a directory, or a directory with a
// trailing /... wildcard) to the directories that contain buildable Go
// files, in deterministic order.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return
		}
		if !seen[abs] && l.hasGoFiles(abs) {
			seen[abs] = true
			dirs = append(dirs, abs)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			if rest == "" {
				rest = "."
			}
			rootAbs, err := filepath.Abs(rest)
			if err != nil {
				return nil, err
			}
			err = filepath.WalkDir(rootAbs, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != rootAbs && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
					name == "testdata" || name == "vendor") {
					return filepath.SkipDir
				}
				add(path)
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		add(pat)
	}
	sort.Strings(dirs)
	return dirs, nil
}

func (l *Loader) hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && buildable(dir, e.Name()) {
			return true
		}
	}
	return false
}

// buildable reports whether the file name in dir is a non-test Go file of
// the default build: its build constraints (//go:build lines, _GOOS and
// _GOARCH suffixes) are evaluated as the go command would, without the race
// detector or any other tag.
func buildable(dir, name string) bool {
	if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return false
	}
	ok, err := build.Default.MatchFile(dir, name)
	return err == nil && ok
}

// LoadDir parses and type-checks the package in dir (the non-test files
// of the default build only), memoized for the loader's lifetime.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if p, ok := l.cache[abs]; ok {
		if p == nil {
			return nil, fmt.Errorf("analysis: import cycle through %s", abs)
		}
		return p, nil
	}
	l.cache[abs] = nil // cycle guard

	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !buildable(abs, name) {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(abs, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", abs)
	}

	pkgPath := l.pkgPathFor(abs, files[0].Name.Name)
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg := &Package{Dir: abs, PkgPath: pkgPath, Fset: l.Fset, Files: files, TypesInfo: info}
	conf := types.Config{
		Importer: &moduleImporter{l: l, from: pkg},
		Error:    func(error) {}, // collect everything, fail on the first below
	}
	tpkg, err := conf.Check(pkgPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", pkgPath, err)
	}
	pkg.Pkg = tpkg
	l.cache[abs] = pkg
	return pkg, nil
}

// pkgPathFor derives the import path for a directory: module-relative when
// under the module root, otherwise the package name (fixture packages).
func (l *Loader) pkgPathFor(abs, pkgName string) string {
	if rel, err := filepath.Rel(l.ModuleRoot, abs); err == nil && !strings.HasPrefix(rel, "..") {
		if rel == "." {
			return l.ModulePath
		}
		return l.ModulePath + "/" + filepath.ToSlash(rel)
	}
	return pkgName
}

// moduleImporter resolves one loading package's imports: module-internal
// paths recurse into the loader, everything else is standard library.
type moduleImporter struct {
	l    *Loader
	from *Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path == m.l.ModulePath || strings.HasPrefix(path, m.l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, m.l.ModulePath), "/")
		dep, err := m.l.LoadDir(filepath.Join(m.l.ModuleRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		m.from.Imports = append(m.from.Imports, dep)
		return dep.Pkg, nil
	}
	return m.l.std.Import(path)
}
