package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Hotpath flags allocation sources inside functions annotated
// //thinlint:hotpath. The golden test ratchets allocs/event at 0.5%,
// but the ratchet fires on the aggregate — it tells you *that* the echo
// path regressed, not *where*. This analyzer names the line: any construct
// that can allocate or box on a hot function is a diagnostic, and the
// remaining deliberate ones (the display.Op boxing ROADMAP names as the
// residual allocs/event driver) carry allow directives so new ones stand
// out.
//
// Rules, all intra-procedural within the annotated function:
//
//   - alloc: make, new, taking the address of a composite literal, and
//     allocating conversions ([]byte(s), string(b), []rune(s)).
//   - box: converting a concrete non-pointer-shaped value to an interface
//     type — in assignments, returns, call arguments, append elements,
//     composite-literal elements. Pointer, map, chan, and func values are
//     exempt: they fit an interface word directly and never heap-box.
//   - closure: function literals that capture variables of the enclosing
//     function. Non-capturing literals are free; capturing ones force the
//     captured variables (and often the closure) to the heap.
//   - fmt: any call into the fmt package. fmt formats through reflection
//     and boxes every operand.
//
// Escape hatch besides //thinlint:allow: expressions feeding directly into
// panic(...) are exempt — crash paths run once and may format freely.
var Hotpath = &Analyzer{
	Name:  "hotpath",
	Doc:   "flag allocations, interface boxing, capturing closures, and fmt calls in //thinlint:hotpath functions",
	Rules: []string{"alloc", "box", "closure", "fmt"},
	Run:   runHotpath,
}

func runHotpath(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hotpathFunc(fn) {
				continue
			}
			h := &hotpathWalker{pass: pass, fn: fn}
			h.walk(fn.Body)
		}
	}
}

type hotpathWalker struct {
	pass *Pass
	fn   *ast.FuncDecl
}

func (h *hotpathWalker) walk(body *ast.BlockStmt) {
	info := h.pass.TypesInfo
	// Nodes under a panic(...) call are exempt: collect their ranges first.
	var panicRanges [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
				panicRanges = append(panicRanges, [2]token.Pos{call.Pos(), call.End()})
			}
		}
		return true
	})
	inPanic := func(pos token.Pos) bool {
		for _, r := range panicRanges {
			if r[0] <= pos && pos < r[1] {
				return true
			}
		}
		return false
	}

	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if inPanic(n.Pos()) {
			return true
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			h.checkCall(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					h.pass.Reportf(n.Pos(), "hotpath.alloc",
						"&composite literal allocates in hot function %s", h.fn.Name.Name)
				}
			}
		case *ast.FuncLit:
			h.checkClosure(n)
			return false // don't descend: the literal runs on its own terms
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) {
					h.checkBox(rhs, info.TypeOf(n.Lhs[i]))
				}
			}
		case *ast.ValueSpec:
			for _, v := range n.Values {
				if n.Type != nil {
					h.checkBox(v, info.TypeOf(n.Type))
				}
			}
		case *ast.ReturnStmt:
			h.checkReturnBox(n)
		case *ast.CompositeLit:
			h.checkCompositeBox(n)
		}
		return true
	})
}

func (h *hotpathWalker) checkCall(call *ast.CallExpr) {
	info := h.pass.TypesInfo
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				h.pass.Reportf(call.Pos(), "hotpath.alloc",
					"%s allocates in hot function %s", b.Name(), h.fn.Name.Name)
			case "append":
				// append itself is the hot path's bread and butter
				// (amortized into pre-sized backing); only its boxed
				// elements are checked below.
			}
			h.checkCallArgBoxes(call)
			return
		}
		// Conversion to an allocating type? T(x) parses as a CallExpr
		// whose Fun resolves to a type.
		if tn, ok := info.Uses[fun].(*types.TypeName); ok {
			h.checkConversionAlloc(call, tn.Type())
			return
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			h.pass.Reportf(call.Pos(), "hotpath.fmt",
				"fmt.%s in hot function %s: fmt boxes every operand and formats through reflection", fn.Name(), h.fn.Name.Name)
		}
		if tn, ok := info.Uses[fun.Sel].(*types.TypeName); ok {
			h.checkConversionAlloc(call, tn.Type())
			return
		}
	case *ast.ArrayType:
		// []byte(s) / []rune(s) style conversion.
		if t := info.TypeOf(fun); t != nil {
			h.checkConversionAlloc(call, t)
			return
		}
	}
	h.checkCallArgBoxes(call)
}

// checkConversionAlloc flags conversions that copy into fresh backing:
// string↔[]byte, string↔[]rune.
func (h *hotpathWalker) checkConversionAlloc(call *ast.CallExpr, to types.Type) {
	if len(call.Args) != 1 {
		return
	}
	from := h.pass.TypesInfo.TypeOf(call.Args[0])
	if from == nil {
		return
	}
	if convAllocates(from, to) {
		h.pass.Reportf(call.Pos(), "hotpath.alloc",
			"conversion to %s copies its backing in hot function %s", types.TypeString(to, types.RelativeTo(h.pass.Pkg)), h.fn.Name.Name)
	}
}

func convAllocates(from, to types.Type) bool {
	f, t := from.Underlying(), to.Underlying()
	isStr := func(u types.Type) bool {
		b, ok := u.(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(u types.Type) bool {
		s, ok := u.(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(f) && isByteOrRuneSlice(t)) || (isByteOrRuneSlice(f) && isStr(t))
}

// checkCallArgBoxes flags concrete values passed where the callee takes an
// interface (including append([]iface, concrete)).
func (h *hotpathWalker) checkCallArgBoxes(call *ast.CallExpr) {
	info := h.pass.TypesInfo
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok && b.Name() == "append" && len(call.Args) > 0 {
			st, ok := info.TypeOf(call.Args[0]).Underlying().(*types.Slice)
			if !ok || call.Ellipsis != token.NoPos {
				return
			}
			for _, arg := range call.Args[1:] {
				h.checkBox(arg, st.Elem())
			}
			return
		}
	}
	sig, ok := typeOfCallFun(info, call)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			if call.Ellipsis != token.NoPos {
				break
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		} else if i < params.Len() {
			pt = params.At(i).Type()
		}
		if pt != nil {
			h.checkBox(arg, pt)
		}
	}
}

func typeOfCallFun(info *types.Info, call *ast.CallExpr) (*types.Signature, bool) {
	t := info.TypeOf(call.Fun)
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

func (h *hotpathWalker) checkReturnBox(ret *ast.ReturnStmt) {
	def := h.pass.TypesInfo.Defs[h.fn.Name]
	if def == nil {
		return
	}
	sig, ok := def.Type().(*types.Signature)
	if !ok {
		return
	}
	res := sig.Results()
	if res.Len() != len(ret.Results) {
		return
	}
	for i, e := range ret.Results {
		h.checkBox(e, res.At(i).Type())
	}
}

// checkCompositeBox flags concrete elements placed into interface-typed
// slots of a composite literal ([]display.Op{DrawText{...}} and friends).
func (h *hotpathWalker) checkCompositeBox(lit *ast.CompositeLit) {
	t := h.pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		for _, el := range lit.Elts {
			h.checkBox(stripKV(el), u.Elem())
		}
	case *types.Array:
		for _, el := range lit.Elts {
			h.checkBox(stripKV(el), u.Elem())
		}
	case *types.Map:
		for _, el := range lit.Elts {
			h.checkBox(stripKV(el), u.Elem())
		}
	}
}

func stripKV(e ast.Expr) ast.Expr {
	if kv, ok := e.(*ast.KeyValueExpr); ok {
		return kv.Value
	}
	return e
}

// checkBox reports expr if assigning it to target boxes a concrete value
// into an interface.
func (h *hotpathWalker) checkBox(expr ast.Expr, target types.Type) {
	if target == nil {
		return
	}
	if _, ok := target.Underlying().(*types.Interface); !ok {
		return
	}
	et := h.pass.TypesInfo.TypeOf(expr)
	if et == nil {
		return
	}
	if _, isIface := et.Underlying().(*types.Interface); isIface {
		return // interface→interface: no new box
	}
	if _, isTuple := et.(*types.Tuple); isTuple {
		return // multi-value assignment; element types aren't recoverable here
	}
	if isUntypedNil(et) || pointerShaped(et) {
		return
	}
	h.pass.Reportf(expr.Pos(), "hotpath.box",
		"%s value boxed into interface %s in hot function %s",
		types.TypeString(et, types.RelativeTo(h.pass.Pkg)),
		types.TypeString(target, types.RelativeTo(h.pass.Pkg)),
		h.fn.Name.Name)
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// pointerShaped reports whether values of t are stored directly in an
// interface word without a heap box.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	}
	return false
}

// checkClosure flags function literals that capture variables declared in
// the enclosing function.
func (h *hotpathWalker) checkClosure(lit *ast.FuncLit) {
	info := h.pass.TypesInfo
	fnScope := h.fn.Pos()
	fnEnd := h.fn.End()
	var captured []string
	seen := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || seen[obj] {
			return true
		}
		// Captured = declared inside the enclosing function but outside
		// the literal itself. Package-level vars and params of the literal
		// don't count.
		if obj.Pos() < fnScope || obj.Pos() > fnEnd {
			return true
		}
		if lit.Pos() <= obj.Pos() && obj.Pos() <= lit.End() {
			return true
		}
		seen[obj] = true
		captured = append(captured, obj.Name())
		return true
	})
	if len(captured) > 0 {
		h.pass.Reportf(lit.Pos(), "hotpath.closure",
			"closure captures %v in hot function %s: captured variables escape to the heap", captured, h.fn.Name.Name)
	}
}
