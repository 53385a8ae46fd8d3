package lint

import (
	"go/ast"
	"go/types"
)

// CloseCheck requires the error from a streaming WRITER's Close to be
// checked. On the store's write path, Close is not cleanup — it is the
// commit point: the shard writer (ckpt.ShardWriter) finalizes checksums and
// sizes at Close, the in-memory object layer's writer (ckpt.memWriter)
// installs the object at Close, and the file object layer's writer
// (ckpt.syncedFile, behind FileStore and PublishFile) syncs the file to the
// device at Close and surfaces short writes there. A discarded Close error
// can seal a manifest over a shard that never fully landed, or never
// became durable — the silent-corruption class the manifest-sealed-last
// contract exists to prevent. Readers (io.ReadCloser) are exempt: their
// Close has no completion semantics.
//
// Two triggers:
//
//   - a discarded `Close()` (expression statement, defer, go, or `_ =`)
//     on a value whose static type is the io.WriteCloser interface — the
//     type every Store.PutShardStream returns; and
//   - the same on an *os.File obtained from os.Create/os.OpenFile in the
//     same declared function (files opened for writing; os.Open'd readers
//     are not tracked).
//
// Abort paths that intentionally discard Close (the write already failed
// and its error is the one that must surface) carry
// `//lint:allow closecheck <why>` annotations.
func CloseCheck() *Analyzer {
	return &Analyzer{
		Name: "closecheck",
		Doc:  "the error from a streaming writer's Close must be checked",
		Run:  runCloseCheck,
	}
}

func runCloseCheck(u *Unit) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range u.Pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				out = append(out, closeChecksInFunc(u, pkg, fd)...)
			}
		}
	}
	return out
}

// closeChecksInFunc flags discarded writer Closes in one declared function
// (nested literals included: a captured writer keeps its identity, and a
// deferred closure discarding Close is the same bug).
func closeChecksInFunc(u *Unit, pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	// Pass 1: objects bound to os.Create/os.OpenFile results.
	created := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pkg.Info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
			return true
		}
		if fn.Name() != "Create" && fn.Name() != "OpenFile" {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			if obj := pkg.Info.Defs[id]; obj != nil {
				created[obj] = true
			} else if obj := pkg.Info.Uses[id]; obj != nil {
				created[obj] = true
			}
		}
		return true
	})

	// Pass 2: discarded Close calls.
	var out []Diagnostic
	flag := func(call *ast.CallExpr, how string) {
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Close" || len(call.Args) != 0 {
			return
		}
		var why string
		if isWriteCloserIface(pkg.Info, sel.X) {
			why = "io.WriteCloser"
		} else if id, ok := unparen(sel.X).(*ast.Ident); ok {
			obj := pkg.Info.Uses[id]
			if obj != nil && created[obj] {
				why = "a file opened for writing"
			}
		}
		if why == "" {
			return
		}
		out = append(out, Diagnostic{
			Pos:   u.Fset.Position(call.Pos()),
			Check: "closecheck",
			Message: how + " discards the Close error of " + why +
				"; Close carries write-completion (checksum/seal) semantics — check it, or annotate `//lint:allow closecheck <why>` on a deliberate abort path",
		})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if call, ok := unparen(s.X).(*ast.CallExpr); ok {
				flag(call, "statement")
			}
		case *ast.DeferStmt:
			flag(s.Call, "defer")
		case *ast.GoStmt:
			flag(s.Call, "go statement")
		case *ast.AssignStmt:
			if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
				if id, ok := s.Lhs[0].(*ast.Ident); ok && id.Name == "_" {
					if call, ok := unparen(s.Rhs[0]).(*ast.CallExpr); ok {
						flag(call, "blank assignment")
					}
				}
			}
		}
		return true
	})
	return out
}

// isWriteCloserIface reports whether an expression's static type is the
// io.WriteCloser interface.
func isWriteCloserIface(info *types.Info, x ast.Expr) bool {
	tv, ok := info.Types[x]
	if !ok {
		return false
	}
	n := namedOf(tv.Type)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "io" && n.Obj().Name() == "WriteCloser"
}
