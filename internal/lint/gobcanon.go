package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// GobCanon enforces the digest-stability rule on snapshot encoding: a type
// reached by gob encoding must not contain a bare map field. gob serializes
// maps in randomized iteration order, so two encodes of identical logical
// state produce different bytes — which breaks every consumer that treats
// snapshot bytes as an identity: the incremental differ stops reusing
// quiescent ranks' shards, the conformance engine's bitwise digest
// comparison reports phantom divergence, and a chain's RawSum drifts
// between hash and stream. The fix is what rt.Buffers does with its named
// buffers (internal/rt/buffers.go): serialize a slice sorted by key, or give
// the type a canonical GobEncode/MarshalBinary.
//
// Roots are the arguments of gob.Encoder.Encode calls; helpers that merely
// forward an interface-typed parameter to Encode (the gobEncode(v any)
// pattern) are treated as encoders themselves, so their call sites'
// concrete argument types are roots too. From each root the analyzer walks
// exported fields, slices, arrays, map values and pointers — stopping at
// types with their own GobEncode or MarshalBinary — and reports each
// reachable map at the field that declares it. Decode-only legacy map
// fields (kept for old images) are annotated `//lint:allow gobcanon <why>`
// at the field.
func GobCanon() *Analyzer {
	return &Analyzer{
		Name: "gobcanon",
		Doc:  "gob-encoded snapshot types must not contain bare map fields",
		Run:  runGobCanon,
	}
}

// gobRoot is one type that flows into an encode call.
type gobRoot struct {
	t   types.Type
	pos token.Pos // the Encode (or wrapper) call site
}

// gobEncoders and reflectEncoders name the calls whose first argument an
// encoder reads field by field: gob's alone, and gob's and JSON's.
var (
	gobEncoders     = map[string]bool{"(*encoding/gob.Encoder).Encode": true}
	reflectEncoders = map[string]bool{"(*encoding/gob.Encoder).Encode": true,
		"(*encoding/json.Encoder).Encode": true, "encoding/json.Marshal": true, "encoding/json.MarshalIndent": true}
)

func runGobCanon(u *Unit) []Diagnostic {
	w := newGobWalker(u)
	for _, r := range encodeRoots(u, gobEncoders) {
		w.walk(r.t, r.pos, "")
	}
	return w.out
}

// encodeRoots returns the types that flow into the first argument of a call
// to one of encoders, directly or through a wrapper.
func encodeRoots(u *Unit, encoders map[string]bool) []gobRoot {
	var roots []gobRoot
	// wrappers maps a function that forwards one of its interface-typed
	// parameters to an encoder onto that parameter's index.
	wrappers := make(map[*types.Func]int)

	for _, pkg := range u.Pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				params := paramObjects(pkg.Info, fd)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || len(call.Args) == 0 {
						return true
					}
					if fn := calleeFunc(pkg.Info, call); fn == nil || !encoders[fn.FullName()] {
						return true
					}
					arg := call.Args[0]
					if idx, ok := forwardedParam(pkg.Info, arg, params); ok {
						if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok && fn != nil {
							wrappers[fn] = idx
							return true
						}
					}
					if tv, ok := pkg.Info.Types[arg]; ok && tv.Type != nil {
						roots = append(roots, gobRoot{tv.Type, call.Pos()})
					}
					return true
				})
			}
		}
	}

	// Wrapper call sites contribute their concrete argument types.
	if len(wrappers) > 0 {
		for _, pkg := range u.Pkgs {
			for _, file := range pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					fn := calleeFunc(pkg.Info, call)
					idx, ok := wrappers[fn]
					if !ok || idx >= len(call.Args) {
						return true
					}
					if tv, ok := pkg.Info.Types[call.Args[idx]]; ok && tv.Type != nil {
						if _, isIface := tv.Type.Underlying().(*types.Interface); !isIface {
							roots = append(roots, gobRoot{tv.Type, call.Pos()})
						}
					}
					return true
				})
			}
		}
	}
	return roots
}

// paramObjects collects a function declaration's parameter objects in
// order.
func paramObjects(info *types.Info, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	if fd.Type.Params == nil {
		return out
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			out = append(out, info.Defs[name])
		}
	}
	return out
}

// forwardedParam reports whether arg is (optionally &-of) one of params,
// returning its index. Only interface-typed parameters count — forwarding
// a concrete parameter is an ordinary root at the Encode call itself.
func forwardedParam(info *types.Info, arg ast.Expr, params []types.Object) (int, bool) {
	e := unparen(arg)
	if un, ok := e.(*ast.UnaryExpr); ok && un.Op == token.AND {
		e = unparen(un.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return 0, false
	}
	obj := info.Uses[id]
	if obj == nil {
		return 0, false
	}
	for i, p := range params {
		if p == obj {
			if _, isIface := p.Type().Underlying().(*types.Interface); isIface {
				return i, true
			}
			return 0, false
		}
	}
	return 0, false
}

// gobWalker walks encoder-reachable types, records the fields it reaches
// and reports bare maps.
type gobWalker struct {
	u        *Unit
	inUnit   map[*types.Package]bool
	visited  map[*types.Named]bool
	reported map[token.Pos]bool
	fields   map[*types.Var]bool
	out      []Diagnostic
}

func newGobWalker(u *Unit) *gobWalker {
	w := &gobWalker{u: u, inUnit: make(map[*types.Package]bool, len(u.Pkgs)), visited: make(map[*types.Named]bool),
		reported: make(map[token.Pos]bool), fields: make(map[*types.Var]bool)}
	for _, pkg := range u.Pkgs {
		w.inUnit[pkg.Pkg] = true
	}
	return w
}

// walk descends t. at is the position the finding is attributed to — the
// declaring field when inside a struct, else the root Encode call — which
// is also where an allow annotation suppresses it. path describes the
// route for the message.
func (w *gobWalker) walk(t types.Type, at token.Pos, path string) {
	switch tt := t.(type) {
	case *types.Pointer:
		w.walk(tt.Elem(), at, path)
	case *types.Slice:
		w.walk(tt.Elem(), at, path)
	case *types.Array:
		w.walk(tt.Elem(), at, path)
	case *types.Map:
		w.report(at, path)
		w.walk(tt.Elem(), at, path)
	case *types.Named:
		if w.visited[tt] {
			return
		}
		w.visited[tt] = true
		if hasCanonicalEncoder(tt) {
			return
		}
		// Only descend into module-internal named types: stdlib types
		// without a canonical encoder are out of annotation reach, and none
		// sit on a snapshot path.
		if tt.Obj().Pkg() != nil && !w.inUnit[tt.Obj().Pkg()] {
			return
		}
		if p := tt.Obj().Name(); p != "" {
			if path == "" {
				path = p
			} else {
				path += " -> " + p
			}
		}
		w.walk(tt.Underlying(), at, path)
	case *types.Struct:
		for i := 0; i < tt.NumFields(); i++ {
			f := tt.Field(i)
			if !f.Exported() {
				continue // gob silently skips unexported fields
			}
			w.fields[f.Origin()] = true
			fieldPath := f.Name()
			if path != "" {
				fieldPath = path + "." + f.Name()
			}
			w.walk(f.Type(), f.Pos(), fieldPath)
		}
	}
}

func (w *gobWalker) report(at token.Pos, path string) {
	if w.reported[at] {
		return
	}
	w.reported[at] = true
	where := path
	if where == "" {
		where = "the encoded value"
	}
	w.out = append(w.out, Diagnostic{
		Pos:   w.u.Fset.Position(at),
		Check: "gobcanon",
		Message: fmt.Sprintf(
			"%s is a bare map reached by snapshot gob encoding; gob's randomized map order breaks byte-stable snapshots — encode a sorted slice (as rt.Buffers does) or implement GobEncode, or annotate `//lint:allow gobcanon <why>` for decode-only legacy fields",
			where),
	})
}

// hasCanonicalEncoder reports whether *T implements gob.GobEncoder or
// encoding.BinaryMarshaler — gob then uses the type's own (presumed
// canonical) encoding instead of reflecting over its fields.
func hasCanonicalEncoder(n *types.Named) bool {
	ms := types.NewMethodSet(types.NewPointer(n))
	for i := 0; i < ms.Len(); i++ {
		switch ms.At(i).Obj().Name() {
		case "GobEncode", "MarshalBinary":
			return true
		}
	}
	return false
}
