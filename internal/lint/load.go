package lint

// Package loading for the analyzer driver.
//
// The module pins a zero-dependency stance (stdlib only, no go.sum), so the
// driver cannot lean on golang.org/x/tools/go/packages. Instead it loads the
// module the way the go/types machinery was designed to be driven directly:
// parse every package directory under the module root, topologically sort
// them by their in-module imports, and type-check each with an importer that
// serves already-checked module packages from memory and falls back to the
// stdlib source importer (go/importer "source") for everything else. The
// source importer resolves standard-library packages from GOROOT, which is
// exactly the dependency closure of this module.

import (
	"fmt"
	"go/ast"
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

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the package's import path ("mana/internal/ckpt").
	Path string
	// Dir is the directory the package was loaded from.
	Dir string
	// Files are the package's parsed non-test files.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info carries the type-checker's per-node facts.
	Info *types.Info
}

// Unit is everything the analyzers see: the loaded packages sharing one
// FileSet.
type Unit struct {
	Fset *token.FileSet
	Pkgs []*Package
	// module is the module path when the unit is a whole module (LoadModule),
	// empty for a list of directories.
	module string
}

// moduleImporter serves module-internal packages from the already-checked
// set and delegates everything else (the stdlib) to the source importer.
type moduleImporter struct {
	mod map[string]*types.Package
	std types.Importer
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.mod[path]; ok {
		return p, nil
	}
	return im.std.Import(path)
}

// FindModuleRoot walks up from dir to the nearest directory holding a
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath reads the module path from a go.mod.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			if unq, err := strconv.Unquote(rest); err == nil {
				rest = unq
			}
			if rest != "" {
				return rest, nil
			}
		}
	}
	return "", fmt.Errorf("lint: %s declares no module path", gomod)
}

// LoadModule parses and type-checks every package under the module rooted at
// root (skipping testdata, hidden directories, and _test.go files).
func LoadModule(root string) (*Unit, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, ent := range ents {
			if isSourceFile(ent.Name()) {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	pathOf := func(dir string) string {
		rel, _ := filepath.Rel(root, dir)
		if rel == "." {
			return mod
		}
		return mod + "/" + filepath.ToSlash(rel)
	}
	u, err := load(dirs, pathOf)
	if err == nil {
		u.module = mod
	}
	return u, err
}

// LoadDirs parses and type-checks the named package directories (the
// testdata entry point: each directory is a self-contained package importing
// only the standard library, or other already-listed directories' paths are
// not resolvable — testdata packages must be stdlib-only).
func LoadDirs(dirs []string) (*Unit, error) {
	return load(dirs, func(dir string) string {
		return filepath.ToSlash(filepath.Clean(dir))
	})
}

// isSourceFile reports whether name is a non-test Go source file.
func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// parsed is one package's pre-typecheck state.
type parsed struct {
	dir     string
	path    string
	files   []*ast.File
	imports map[string]bool // in-unit imports only (filled after all parse)
	mark    int             // topo-sort state: 0 unvisited, 1 visiting, 2 done
}

// load parses each directory, topologically sorts by in-unit imports, and
// type-checks in dependency order.
func load(dirs []string, pathOf func(dir string) string) (*Unit, error) {
	fset := token.NewFileSet()
	byPath := make(map[string]*parsed)
	var order []string
	for _, dir := range dirs {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		p := &parsed{dir: abs, path: pathOf(abs)}
		ents, err := os.ReadDir(abs)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		names := make([]string, 0, len(ents))
		for _, ent := range ents {
			if isSourceFile(ent.Name()) {
				names = append(names, ent.Name())
			}
		}
		sort.Strings(names)
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(abs, name), nil,
				parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("lint: %w", err)
			}
			p.files = append(p.files, f)
		}
		if len(p.files) == 0 {
			continue
		}
		if byPath[p.path] != nil {
			return nil, fmt.Errorf("lint: duplicate package path %s", p.path)
		}
		byPath[p.path] = p
		order = append(order, p.path)
	}
	for _, p := range byPath {
		p.imports = make(map[string]bool)
		for _, f := range p.files {
			for _, imp := range f.Imports {
				ip, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if byPath[ip] != nil {
					p.imports[ip] = true
				}
			}
		}
	}

	// Topological order over in-unit imports, stable across runs.
	sort.Strings(order)
	var topo []*parsed
	var visit func(p *parsed) error
	visit = func(p *parsed) error {
		switch p.mark {
		case 2:
			return nil
		case 1:
			return fmt.Errorf("lint: import cycle through %s", p.path)
		}
		p.mark = 1
		deps := make([]string, 0, len(p.imports))
		for ip := range p.imports {
			deps = append(deps, ip)
		}
		sort.Strings(deps)
		for _, ip := range deps {
			if err := visit(byPath[ip]); err != nil {
				return err
			}
		}
		p.mark = 2
		topo = append(topo, p)
		return nil
	}
	for _, path := range order {
		if err := visit(byPath[path]); err != nil {
			return nil, err
		}
	}

	im := &moduleImporter{
		mod: make(map[string]*types.Package),
		std: importer.ForCompiler(fset, "source", nil),
	}
	u := &Unit{Fset: fset}
	for _, p := range topo {
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		}
		conf := types.Config{Importer: im}
		pkg, err := conf.Check(p.path, fset, p.files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", p.path, err)
		}
		im.mod[p.path] = pkg
		u.Pkgs = append(u.Pkgs, &Package{
			Path: p.path, Dir: p.dir, Files: p.files, Pkg: pkg, Info: info,
		})
	}
	return u, nil
}
