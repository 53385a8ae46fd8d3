package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// TestOnly reports every function and method that no program reaches: one
// that no other function and no package-level declaration of the loaded
// unit refers to (its own body does not count). The loader sees no test
// file, so code only tests call is reported: a second API beside the one
// the programs run. Code under the module's bench/ is not reported, but its
// references count. The API is exempt, derived rather than listed: the root
// package's exported functions and methods, the exported methods (promoted
// ones included) of the types it re-exports by alias (type Env = rt.Env),
// any method whose name an interface visible to the unit declares — a call
// through an interface names only the interface's method — and main and
// init.
//
// It reports, too, every struct field outside bench/ that no non-test code
// reads: one that is only assigned, incremented, set by composite literals
// or read by tests is state no program needs. Every selector use that is not
// an assignment target, a ++/-- operand or a composite-literal key is a
// read. Fields that are read without a selector are exempt, derived rather
// than listed: those of the types gob or JSON encoding reaches (gobcanon's
// roots and walk), those of struct types non-test code uses as a map key or
// compares with == or !=, and embedded fields. Anything else kept without a
// caller or a reader carries `//lint:allow testonly <why>`.
func TestOnly() *Analyzer {
	return &Analyzer{
		Name: "testonly",
		Doc:  "every function and struct field is used by non-test code or is API",
		Run: func(u *Unit) []Diagnostic {
			return append(runTestOnly(u), unreadFields(u)...)
		},
	}
}

func runTestOnly(u *Unit) []Diagnostic {
	reached := make(map[*types.Func]bool)
	for _, pkg := range u.Pkgs {
		if pkg.Path == u.module {
			exemptRootAPI(pkg, reached)
		}
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				var self types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = pkg.Info.Defs[fd.Name]
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && fn.Origin() != self {
							reached[fn.Origin()] = true
						}
					}
					return true
				})
			}
		}
	}
	ifaceNames := interfaceMethodNames(u)
	var out []Diagnostic
	for _, pkg := range u.Pkgs {
		if u.inBench(pkg) {
			continue
		}
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn, _ := pkg.Info.Defs[fd.Name].(*types.Func); reached[fn] {
					continue
				}
				name := fd.Name.Name
				if fd.Recv == nil && (name == "main" || name == "init") || fd.Recv != nil && ifaceNames[name] {
					continue
				}
				if recv := recvNamedOfDecl(pkg.Info, fd); recv != nil {
					name = recv.Obj().Name() + "." + name
				}
				out = append(out, Diagnostic{
					Pos:   u.Fset.Position(fd.Pos()),
					Check: "testonly",
					Message: fmt.Sprintf("%s.%s is reached by no non-test code; delete it, move it into "+
						"a _test.go file, or annotate `//lint:allow testonly <why>`", pkg.Pkg.Name(), name),
				})
			}
		}
	}
	return out
}

// inBench reports whether pkg lies under the module's bench/.
func (u *Unit) inBench(pkg *Package) bool {
	return u.module != "" && strings.HasPrefix(pkg.Path+"/", u.module+"/bench/")
}

// unreadFields reports the struct fields outside bench/ that no selector of
// non-test code reads and no exemption covers.
func unreadFields(u *Unit) []Diagnostic {
	w := newGobWalker(u)
	for _, r := range encodeRoots(u, reflectEncoders) {
		w.walk(r.t, r.pos, "")
	}
	read := w.fields
	var readAll func(t types.Type) // a comparison or a map key reads every field
	readAll = func(t types.Type) {
		switch t := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				read[t.Field(i).Origin()] = true
				readAll(t.Field(i).Type())
			}
		case *types.Array:
			readAll(t.Elem())
		}
	}
	for _, pkg := range u.Pkgs {
		for _, tv := range pkg.Info.Types {
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				readAll(m.Key())
			}
		}
		written := make(map[*ast.Ident]bool)
		write := func(e ast.Expr) { // x.f = v, and an element store x.f[i] = v
			e = unparen(e)
			for ix, ok := e.(*ast.IndexExpr); ok; ix, ok = e.(*ast.IndexExpr) {
				e = unparen(ix.X)
			}
			if sel, ok := e.(*ast.SelectorExpr); ok {
				written[sel.Sel] = true
			}
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						write(lhs)
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						written[id] = true
					}
				case *ast.BinaryExpr:
					if t := pkg.Info.TypeOf(n.X); t != nil && (n.Op == token.EQL || n.Op == token.NEQ) {
						readAll(t)
					}
				case *ast.Ident:
					if v, ok := pkg.Info.Uses[n].(*types.Var); ok && v.IsField() && !written[n] {
						read[v.Origin()] = true
					}
				}
				return true
			})
		}
	}
	var out []Diagnostic
	for _, pkg := range u.Pkgs {
		if u.inBench(pkg) {
			continue
		}
		for _, file := range pkg.Files {
			owner := make(map[ast.Expr]string) // a struct type's name, when it has one
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					owner[n.Type] = n.Name.Name + "."
				case *ast.StructType:
					for _, f := range n.Fields.List {
						for _, id := range f.Names { // an embedded field has none
							if v, ok := pkg.Info.Defs[id].(*types.Var); ok && !read[v] {
								out = append(out, Diagnostic{
									Pos:   u.Fset.Position(id.Pos()),
									Check: "testonly",
									Message: fmt.Sprintf("%s.%s%s is read by no non-test code; delete it, give it a reader "+
										"a program needs, or annotate `//lint:allow testonly <why>`", pkg.Pkg.Name(), owner[n], id.Name),
								})
							}
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// exemptRootAPI marks the root package's exported functions and methods,
// and the exported methods of every type it re-exports by alias, reached.
func exemptRootAPI(root *Package, reached map[*types.Func]bool) {
	scope := root.Pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if fn, ok := obj.(*types.Func); ok && fn.Exported() {
			reached[fn] = true
		}
		tn, ok := obj.(*types.TypeName)
		if named := namedOf(obj.Type()); ok && tn.Exported() && named != nil {
			mset := types.NewMethodSet(types.NewPointer(named))
			for i := 0; i < mset.Len(); i++ {
				if fn := mset.At(i).Obj().(*types.Func); fn.Exported() && (tn.IsAlias() || fn.Pkg() == root.Pkg) {
					reached[fn.Origin()] = true
				}
			}
		}
	}
}

// interfaceMethodNames collects the method names every interface the unit
// can see declares: error's, those of the named interfaces of the unit's
// packages and of all they import, and those of every interface written in
// the unit's source or in that of a package it imports directly — errors.Is
// and errors.As reach an Unwrap method only through an interface literal.
func interfaceMethodNames(u *Unit) map[string]bool {
	names := map[string]bool{"Error": true}
	scan := func(f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, id := range m.Names {
						names[id.Name] = true
					}
				}
			}
			return true
		})
	}
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if it, ok := p.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					names[it.Method(i).Name()] = true
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	inUnit := make(map[string]bool, len(u.Pkgs))
	for _, pkg := range u.Pkgs {
		visit(pkg.Pkg)
		for _, f := range pkg.Files {
			scan(f)
		}
		inUnit[pkg.Path] = true
	}
	fset := token.NewFileSet()
	for _, pkg := range u.Pkgs {
		for _, imp := range pkg.Pkg.Imports() {
			if inUnit[imp.Path()] {
				continue
			}
			inUnit[imp.Path()] = true // read once
			bp, err := build.Import(imp.Path(), "", 0)
			if err != nil {
				continue
			}
			for _, name := range append(bp.GoFiles, bp.CgoFiles...) {
				if f, err := parser.ParseFile(fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution); err == nil {
					scan(f)
				}
			}
		}
	}
	return names
}
