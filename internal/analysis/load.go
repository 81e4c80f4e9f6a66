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
	"strconv"
	"strings"
)

// LoadConfig parameterizes a module load.
type LoadConfig struct {
	// Dir is any directory inside the module (the loader walks up to the
	// enclosing go.mod).
	Dir string
	// IncludeTests adds in-package _test.go files to each package. External
	// test packages (package foo_test) are always skipped: they cannot be
	// type-checked into the package they test without a second unit.
	IncludeTests bool
}

// Load parses and type-checks every package of the module containing
// cfg.Dir. Module-internal imports are resolved recursively within the unit;
// standard-library imports are type-checked from GOROOT source via the
// stdlib "source" importer, so the driver needs no export data and no
// x/tools dependency.
func Load(cfg LoadConfig) (*Unit, error) {
	root, modPath, err := findModule(cfg.Dir)
	if err != nil {
		return nil, err
	}
	l := &loader{
		cfg:     cfg,
		fset:    token.NewFileSet(),
		root:    root,
		modPath: modPath,
		pkgs:    make(map[string]*Package),
		state:   make(map[string]int),
	}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	dirs, err := l.packageDirs()
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		if _, err := l.load(l.importPath(dir)); err != nil {
			return nil, err
		}
	}
	return &Unit{
		Fset:       l.fset,
		ModulePath: modPath,
		ModuleDir:  root,
		Packages:   l.order,
	}, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					mp := strings.TrimSpace(rest)
					if q, err := strconv.Unquote(mp); err == nil {
						mp = q
					}
					return d, mp, nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		d = parent
	}
}

const (
	stNone = iota
	stLoading
	stDone
)

type loader struct {
	cfg     LoadConfig
	fset    *token.FileSet
	root    string
	modPath string
	std     types.ImporterFrom
	pkgs    map[string]*Package
	state   map[string]int
	order   []*Package
}

func (l *loader) importPath(dir string) string {
	rel, _ := filepath.Rel(l.root, dir)
	if rel == "." {
		return l.modPath
	}
	return l.modPath + "/" + filepath.ToSlash(rel)
}

func (l *loader) dirOf(importPath string) string {
	if importPath == l.modPath {
		return l.root
	}
	rel := strings.TrimPrefix(importPath, l.modPath+"/")
	return filepath.Join(l.root, filepath.FromSlash(rel))
}

// packageDirs walks the module tree for directories containing Go files.
// testdata, vendor, hidden and underscore-prefixed directories are skipped,
// mirroring the go tool.
func (l *loader) packageDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != l.root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasPrefix(d.Name(), ".") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	sort.Strings(dirs)
	return dirs, err
}

// load parses and type-checks one module package (memoized, cycle-checked).
func (l *loader) load(importPath string) (*Package, error) {
	switch l.state[importPath] {
	case stDone:
		return l.pkgs[importPath], nil
	case stLoading:
		return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
	}
	l.state[importPath] = stLoading
	dir := l.dirOf(importPath)
	files, name, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		l.state[importPath] = stDone
		return nil, nil
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: (*unitImporter)(l),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(importPath, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type errors in %s: %v", importPath, typeErrs[0])
	}
	p := &Package{
		Path:  importPath,
		Dir:   dir,
		Name:  name,
		Files: files,
		Pkg:   tpkg,
		Info:  info,
	}
	l.pkgs[importPath] = p
	l.state[importPath] = stDone
	l.order = append(l.order, p)
	return p, nil
}

// parseDir parses the package's files in dir: non-test files always,
// in-package test files when IncludeTests, external-test-package files
// never.
func (l *loader) parseDir(dir string) ([]*ast.File, string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, "", err
	}
	var files []*ast.File
	var name string
	for _, e := range entries {
		fn := e.Name()
		if e.IsDir() || !strings.HasSuffix(fn, ".go") || strings.HasPrefix(fn, ".") || strings.HasPrefix(fn, "_") {
			continue
		}
		if strings.HasSuffix(fn, "_test.go") && !l.cfg.IncludeTests {
			continue
		}
		// Files for another platform (name suffix or //go:build line) are
		// not part of the package being checked.
		if match, err := build.Default.MatchFile(dir, fn); err != nil {
			return nil, "", err
		} else if !match {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, fn), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, "", err
		}
		pkgName := f.Name.Name
		if strings.HasSuffix(pkgName, "_test") {
			continue // external test package: separate unit, skipped
		}
		if name == "" {
			name = pkgName
		}
		if pkgName != name {
			return nil, "", fmt.Errorf("analysis: multiple packages in %s: %s and %s", dir, name, pkgName)
		}
		files = append(files, f)
	}
	return files, name, nil
}

// unitImporter resolves imports during type-checking: module-internal paths
// recurse into the loader, everything else goes to the GOROOT source
// importer.
type unitImporter loader

func (ui *unitImporter) Import(path string) (*types.Package, error) {
	return ui.ImportFrom(path, ui.root, 0)
}

func (ui *unitImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l := (*loader)(ui)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, fmt.Errorf("analysis: no Go files in %s", path)
		}
		return p.Pkg, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}
