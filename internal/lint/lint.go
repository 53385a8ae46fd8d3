// Package lint is a project-specific static-analysis suite (driven by
// cmd/cclint) that mechanically enforces the checkpoint-safety conventions
// this codebase's correctness rests on:
//
//   - lockedcall: a *Locked method of a mutex-guarded type may only be
//     called from another *Locked method of the same type or from a caller
//     that locks the receiver's mu.
//   - budgetpair: every StreamBudget.Acquire must be paired with a deferred
//     Release in the same function, so error returns and panics cannot leak
//     budget and wedge later commits.
//   - wallclock: no time.Now/Since/Until in virtual-time-modeled library
//     code; host-time measurement sites must be explicitly annotated.
//   - closecheck: the error from a streaming writer's Close must be checked
//     — Close carries checksum/seal semantics on the store's write path.
//   - gobcanon: types reached by snapshot gob encoding must not contain
//     bare map fields — gob's randomized map order breaks the
//     digest-stability rule incremental shard reuse diffs against.
//   - testonly: every function is referenced from non-test code, or is API
//     (the root package's exported names, the exported methods of the types
//     it re-exports by alias, any method whose name an interface declares,
//     main and init) — code only tests reach is a second, unexercised API.
//
// A finding is suppressed by annotating the offending line (trailing, or a
// comment line directly above) with:
//
//	//lint:allow <check>[,<check>...] <justification>
//
// The justification is mandatory by convention: an allow records WHY the
// invariant is deliberately bent at that site.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Analyzer is one check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(u *Unit) []Diagnostic
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		LockedCall(),
		BudgetPair(),
		Wallclock(nil),
		CloseCheck(),
		GobCanon(),
		TestOnly(),
	}
}

// Run executes the analyzers over the unit and returns the unsuppressed
// findings sorted by position.
func Run(u *Unit, analyzers []*Analyzer) []Diagnostic {
	allow := collectAllows(u)
	var out []Diagnostic
	seen := make(map[string]bool)
	for _, a := range analyzers {
		for _, d := range a.Run(u) {
			if allow.covers(d.Check, d.Pos) {
				continue
			}
			key := d.String()
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Check < out[j].Check
	})
	return out
}

// Print writes the diagnostics one per line.
func Print(w io.Writer, diags []Diagnostic) {
	for _, d := range diags {
		fmt.Fprintln(w, d.String())
	}
}

// ------------------------------------------------------------- suppression

// allowKey identifies one suppressed (file, line, check).
type allowKey struct {
	file  string
	line  int
	check string
}

type allowSet map[allowKey]bool

// covers reports whether a diagnostic at pos for check is suppressed: an
// allow comment sits on the same line (trailing) or the line directly above.
func (s allowSet) covers(check string, pos token.Position) bool {
	return s[allowKey{pos.Filename, pos.Line, check}]
}

// collectAllows gathers every //lint:allow annotation in the unit. An
// annotation at line L covers findings on line L and line L+1, so both the
// trailing and the line-above placement work.
func collectAllows(u *Unit) allowSet {
	s := make(allowSet)
	for _, pkg := range u.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//lint:allow")
					if !ok {
						continue
					}
					fields := strings.Fields(text)
					if len(fields) == 0 {
						continue
					}
					pos := u.Fset.Position(c.Pos())
					for _, check := range strings.Split(fields[0], ",") {
						check = strings.TrimSpace(check)
						if check == "" {
							continue
						}
						s[allowKey{pos.Filename, pos.Line, check}] = true
						s[allowKey{pos.Filename, pos.Line + 1, check}] = true
					}
				}
			}
		}
	}
	return s
}

// ----------------------------------------------------------- type helpers

// unparen strips redundant parentheses. (ast.Unparen is 1.22+; the module
// pins go 1.21.)
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// namedOf unwraps pointers down to the named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// isSyncMutex reports whether t is sync.Mutex or sync.RWMutex.
func isSyncMutex(t types.Type) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "sync" &&
		(n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex")
}

// hasMuField reports whether n's underlying struct has its own mutex field
// named "mu" — the convention every lock-guarded type in this codebase uses.
func hasMuField(n *types.Named) bool {
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == "mu" && isSyncMutex(f.Type()) {
			return true
		}
	}
	return false
}

// calleeFunc resolves a call expression to the *types.Func it invokes (for
// both method calls and plain function calls), or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// methodRecvNamed returns the named receiver type of a method-value call
// (c.Foo()), or nil for plain function calls.
func methodRecvNamed(info *types.Info, call *ast.CallExpr) *types.Named {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	selection := info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return nil
	}
	return namedOf(selection.Recv())
}

// eachFuncScope walks every function scope in a file — each FuncDecl body
// and each FuncLit body is its own scope — and invokes fn with the scope's
// declaring node (either *ast.FuncDecl or *ast.FuncLit) and, when the scope
// is a declared function, its FuncDecl.
func eachFuncScope(file *ast.File, fn func(scope ast.Node, decl *ast.FuncDecl)) {
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		fn(fd, fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				fn(lit, fd)
			}
			return true
		})
	}
}

// scopeBody returns a scope node's body.
func scopeBody(scope ast.Node) *ast.BlockStmt {
	switch s := scope.(type) {
	case *ast.FuncDecl:
		return s.Body
	case *ast.FuncLit:
		return s.Body
	}
	return nil
}

// inspectShallow walks a function scope's body without descending into
// nested function literals — their statements execute under their own
// scope's locking discipline, not the enclosing one's.
func inspectShallow(scope ast.Node, fn func(n ast.Node) bool) {
	body := scopeBody(scope)
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}

// recvNamedOfDecl returns the named receiver type of a method declaration,
// or nil for plain functions.
func recvNamedOfDecl(info *types.Info, fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	if tv, ok := info.Types[fd.Recv.List[0].Type]; ok {
		return namedOf(tv.Type)
	}
	return nil
}
