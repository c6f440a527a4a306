package wlc

import "repro/internal/wl"

// Options controls compilation.
type Options struct {
	// ConstFold enables AST-level constant folding and constant-branch
	// elimination before lowering. An optimized build has a different CFG
	// — and therefore different Ball–Larus numbering — than a plain
	// build, mirroring how the paper's traces depend on the compiled
	// binary, not the source.
	ConstFold bool
}

// CompileWithOptions parses, checks, optionally optimizes, and lowers WL
// source text.
func CompileWithOptions(src string, opts Options) (*Program, error) {
	file, err := wl.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := wl.Check(file); err != nil {
		return nil, err
	}
	if opts.ConstFold {
		foldFile(file)
	}
	return Lower(file)
}

// Fold applies the optimizer's AST rewrites (constant folding,
// constant-branch elimination, dead-declaration removal) to a checked
// file in place, for tools that want to display or further process the
// optimized source (wl.Format renders it back to text).
func Fold(f *wl.File) { foldFile(f) }

// foldFile applies constant folding, constant-branch elimination, and
// dead-declaration removal to every function, in place.
func foldFile(f *wl.File) {
	for _, fn := range f.Funcs {
		fo := &folder{}
		fn.Body = fo.foldBlock(fn.Body)
		if len(fo.hoisted) > 0 {
			// Declarations rescued from eliminated dead code run once at
			// function entry (zero-initialized, exactly as an unexecuted
			// declaration behaves).
			fn.Body.Stmts = append(append([]wl.Stmt{}, fo.hoisted...), fn.Body.Stmts...)
		}
		removeDeadDecls(fn.Body)
	}
}

// folder carries per-function folding state: declarations hoisted out of
// eliminated dead code.
type folder struct {
	hoisted []wl.Stmt
}

// removeDeadDecls drops `var x = <pure>` declarations whose variable is
// never referenced again (folding and dead-arm hoisting create these).
// Removing one declaration can orphan another, so it iterates to a
// fixpoint.
func removeDeadDecls(body *wl.BlockStmt) {
	for {
		uses := map[string]int{}
		var countStmt func(s wl.Stmt)
		var countExpr func(e wl.Expr)
		countExpr = func(e wl.Expr) {
			switch e := e.(type) {
			case *wl.Ident:
				uses[e.Name]++
			case *wl.IndexExpr:
				uses[e.Name]++
				countExpr(e.Index)
			case *wl.CallExpr:
				for _, a := range e.Args {
					countExpr(a)
				}
			case *wl.UnaryExpr:
				countExpr(e.X)
			case *wl.BinaryExpr:
				countExpr(e.X)
				countExpr(e.Y)
			}
		}
		countStmt = func(s wl.Stmt) {
			switch s := s.(type) {
			case *wl.BlockStmt:
				for _, st := range s.Stmts {
					countStmt(st)
				}
			case *wl.VarStmt:
				countExpr(s.Init)
			case *wl.AssignStmt:
				uses[s.Name]++ // a store keeps the variable alive
				if s.Index != nil {
					countExpr(s.Index)
				}
				countExpr(s.Value)
			case *wl.IfStmt:
				countExpr(s.Cond)
				countStmt(s.Then)
				if s.Else != nil {
					countStmt(s.Else)
				}
			case *wl.WhileStmt:
				countExpr(s.Cond)
				countStmt(s.Body)
			case *wl.ForStmt:
				if s.Init != nil {
					countStmt(s.Init)
				}
				if s.Cond != nil {
					countExpr(s.Cond)
				}
				if s.Post != nil {
					countStmt(s.Post)
				}
				countStmt(s.Body)
			case *wl.ReturnStmt:
				if s.Value != nil {
					countExpr(s.Value)
				}
			case *wl.PrintStmt:
				for _, a := range s.Args {
					countExpr(a)
				}
			case *wl.ExprStmt:
				countExpr(s.X)
			}
		}
		countStmt(body)

		removed := false
		var sweep func(b *wl.BlockStmt)
		var sweepStmt func(s wl.Stmt)
		sweepStmt = func(s wl.Stmt) {
			switch s := s.(type) {
			case *wl.BlockStmt:
				sweep(s)
			case *wl.IfStmt:
				sweep(s.Then)
				if s.Else != nil {
					sweepStmt(s.Else)
				}
			case *wl.WhileStmt:
				sweep(s.Body)
			case *wl.ForStmt:
				sweep(s.Body)
			}
		}
		sweep = func(b *wl.BlockStmt) {
			out := b.Stmts[:0]
			for _, s := range b.Stmts {
				if v, ok := s.(*wl.VarStmt); ok && uses[v.Name] == 0 && pure(v.Init) {
					removed = true
					continue
				}
				sweepStmt(s)
				out = append(out, s)
			}
			b.Stmts = out
		}
		sweep(body)
		if !removed {
			return
		}
	}
}

func (fo *folder) foldBlock(b *wl.BlockStmt) *wl.BlockStmt {
	var out []wl.Stmt
	for _, s := range b.Stmts {
		out = append(out, fo.foldStmt(s)...)
	}
	b.Stmts = out
	return b
}

// foldStmt rewrites one statement; it returns zero or more replacement
// statements (constant branches splice their taken arm's block inline is
// avoided — blocks keep their structure — but dead arms disappear).
func (fo *folder) foldStmt(s wl.Stmt) []wl.Stmt {
	switch s := s.(type) {
	case *wl.BlockStmt:
		return []wl.Stmt{fo.foldBlock(s)}
	case *wl.VarStmt:
		s.Init = foldExpr(s.Init)
		return []wl.Stmt{s}
	case *wl.AssignStmt:
		if s.Index != nil {
			s.Index = foldExpr(s.Index)
		}
		s.Value = foldExpr(s.Value)
		return []wl.Stmt{s}
	case *wl.IfStmt:
		s.Cond = foldExpr(s.Cond)
		s.Then = fo.foldBlock(s.Then)
		if s.Else != nil {
			folded := fo.foldStmt(s.Else)
			if len(folded) == 1 {
				s.Else = folded[0]
			} else {
				// An else-if that folded to multiple statements (or none)
				// becomes a block.
				s.Else = &wl.BlockStmt{Pos: s.Pos, Stmts: folded}
			}
		}
		if lit, ok := s.Cond.(*wl.IntLit); ok {
			// WL variables are function-scoped: declarations inside a
			// dead arm must survive (zero-initialized, exactly as an
			// unexecuted declaration behaves) or later uses would lower
			// against a missing register.
			if lit.Val != 0 {
				fo.hoistVars(s.Else)
				return []wl.Stmt{s.Then}
			}
			fo.hoistVars(s.Then)
			if s.Else != nil {
				return []wl.Stmt{s.Else}
			}
			return nil
		}
		return []wl.Stmt{s}
	case *wl.WhileStmt:
		s.Cond = foldExpr(s.Cond)
		s.Body = fo.foldBlock(s.Body)
		if lit, ok := s.Cond.(*wl.IntLit); ok && lit.Val == 0 {
			fo.hoistVars(s.Body)
			return nil
		}
		return []wl.Stmt{s}
	case *wl.ForStmt:
		if s.Init != nil {
			if folded := fo.foldStmt(s.Init); len(folded) == 1 {
				s.Init = folded[0]
			}
		}
		if s.Cond != nil {
			s.Cond = foldExpr(s.Cond)
		}
		if s.Post != nil {
			if folded := fo.foldStmt(s.Post); len(folded) == 1 {
				s.Post = folded[0]
			}
		}
		s.Body = fo.foldBlock(s.Body)
		if lit, ok := s.Cond.(*wl.IntLit); ok && lit.Val == 0 {
			// The loop never runs, but its init does and its
			// declarations stay visible.
			fo.hoistVars(s.Body)
			if s.Init != nil {
				return []wl.Stmt{s.Init}
			}
			return nil
		}
		return []wl.Stmt{s}
	case *wl.ReturnStmt:
		if s.Value != nil {
			s.Value = foldExpr(s.Value)
		}
		return []wl.Stmt{s}
	case *wl.PrintStmt:
		for i, a := range s.Args {
			s.Args[i] = foldExpr(a)
		}
		return []wl.Stmt{s}
	case *wl.ExprStmt:
		s.X = foldExpr(s.X)
		// A side-effect-free expression statement is dead.
		if pure(s.X) {
			return nil
		}
		return []wl.Stmt{s}
	default:
		return []wl.Stmt{s}
	}
}

// hoistVars records zero-value declarations for every variable declared
// anywhere inside s, preserving function-scoped visibility when s itself
// is eliminated as dead code; foldFile emits them at function entry.
func (fo *folder) hoistVars(s wl.Stmt) {
	if s == nil {
		return
	}
	collectVars(s, func(name string) {
		fo.hoisted = append(fo.hoisted, &wl.VarStmt{Name: name, Init: &wl.IntLit{Val: 0}})
	})
}

// pure reports whether evaluating e has no side effects and cannot fault.
// Calls may have effects; index loads may fault; everything else is safe.
func pure(e wl.Expr) bool {
	switch e := e.(type) {
	case *wl.IntLit, *wl.Ident:
		return true
	case *wl.UnaryExpr:
		return pure(e.X)
	case *wl.BinaryExpr:
		if !pure(e.X) || !pure(e.Y) {
			return false
		}
		// Division and remainder can fault.
		if e.Op == wl.Div || e.Op == wl.Rem {
			if lit, ok := e.Y.(*wl.IntLit); ok {
				return lit.Val != 0
			}
			return false
		}
		return true
	default:
		return false
	}
}

func foldExpr(e wl.Expr) wl.Expr {
	switch e := e.(type) {
	case *wl.IntLit, *wl.Ident:
		return e
	case *wl.IndexExpr:
		e.Index = foldExpr(e.Index)
		return e
	case *wl.CallExpr:
		for i, a := range e.Args {
			e.Args[i] = foldExpr(a)
		}
		return e
	case *wl.UnaryExpr:
		e.X = foldExpr(e.X)
		if lit, ok := e.X.(*wl.IntLit); ok {
			switch e.Op {
			case wl.Not:
				if lit.Val == 0 {
					return &wl.IntLit{Pos: e.Pos, Val: 1}
				}
				return &wl.IntLit{Pos: e.Pos, Val: 0}
			case wl.Sub:
				return &wl.IntLit{Pos: e.Pos, Val: -lit.Val}
			}
		}
		return e
	case *wl.BinaryExpr:
		e.X = foldExpr(e.X)
		e.Y = foldExpr(e.Y)
		return foldBinary(e)
	default:
		return e
	}
}

func foldBinary(e *wl.BinaryExpr) wl.Expr {
	lx, xIsLit := e.X.(*wl.IntLit)
	ly, yIsLit := e.Y.(*wl.IntLit)

	// Short-circuit operators with a constant left operand.
	if e.Op == wl.AndAnd || e.Op == wl.OrOr {
		if xIsLit {
			xTrue := lx.Val != 0
			if e.Op == wl.AndAnd && !xTrue {
				return &wl.IntLit{Pos: e.Pos, Val: 0}
			}
			if e.Op == wl.OrOr && xTrue {
				return &wl.IntLit{Pos: e.Pos, Val: 1}
			}
			// Result is the truth value of the right operand.
			if yIsLit {
				if ly.Val != 0 {
					return &wl.IntLit{Pos: e.Pos, Val: 1}
				}
				return &wl.IntLit{Pos: e.Pos, Val: 0}
			}
			return &wl.UnaryExpr{Pos: e.Pos, Op: wl.Not,
				X: &wl.UnaryExpr{Pos: e.Pos, Op: wl.Not, X: e.Y}}
		}
		return e
	}

	if xIsLit && yIsLit {
		// Leave faulting operations for runtime.
		if (e.Op == wl.Div || e.Op == wl.Rem) && ly.Val == 0 {
			return e
		}
		v, err := FoldConst(e.Op, lx.Val, ly.Val)
		if err == nil {
			return &wl.IntLit{Pos: e.Pos, Val: v}
		}
		return e
	}

	// Algebraic identities, only when the surviving operand is trivially
	// pure (so evaluation order and effects are preserved).
	if yIsLit && pure(e.X) {
		switch {
		case ly.Val == 0 && (e.Op == wl.Add || e.Op == wl.Sub || e.Op == wl.Or || e.Op == wl.Xor || e.Op == wl.Shl || e.Op == wl.Shr):
			return e.X
		case ly.Val == 1 && (e.Op == wl.Mul || e.Op == wl.Div):
			return e.X
		case ly.Val == 0 && e.Op == wl.Mul:
			return &wl.IntLit{Pos: e.Pos, Val: 0}
		}
	}
	if xIsLit && pure(e.Y) {
		switch {
		case lx.Val == 0 && (e.Op == wl.Add || e.Op == wl.Or || e.Op == wl.Xor):
			return e.Y
		case lx.Val == 1 && e.Op == wl.Mul:
			return e.Y
		case lx.Val == 0 && e.Op == wl.Mul:
			return &wl.IntLit{Pos: e.Pos, Val: 0}
		}
	}
	return e
}

// FoldConst evaluates a binary operator over constants with the
// interpreter's exact semantics (wrapping arithmetic, logical right
// shift, 0/1 comparisons). It is shared with the interpreter via tests to
// keep compile-time and run-time evaluation in lockstep.
func FoldConst(op wl.Kind, a, b int64) (int64, error) {
	return evalConst(op, a, b)
}

func evalConst(op wl.Kind, a, b int64) (int64, error) {
	switch op {
	case wl.Add:
		return a + b, nil
	case wl.Sub:
		return a - b, nil
	case wl.Mul:
		return a * b, nil
	case wl.Div:
		if b == 0 {
			return 0, errDivZero
		}
		return a / b, nil
	case wl.Rem:
		if b == 0 {
			return 0, errDivZero
		}
		return a % b, nil
	case wl.Lt:
		return cb2i(a < b), nil
	case wl.Le:
		return cb2i(a <= b), nil
	case wl.Gt:
		return cb2i(a > b), nil
	case wl.Ge:
		return cb2i(a >= b), nil
	case wl.Eq:
		return cb2i(a == b), nil
	case wl.Ne:
		return cb2i(a != b), nil
	case wl.And:
		return a & b, nil
	case wl.Or:
		return a | b, nil
	case wl.Xor:
		return a ^ b, nil
	case wl.Shl:
		return a << (uint64(b) & 63), nil
	case wl.Shr:
		return int64(uint64(a) >> (uint64(b) & 63)), nil
	}
	return 0, errUnknownOp
}

var (
	errDivZero   = errorString("division by zero")
	errUnknownOp = errorString("unknown operator")
)

type errorString string

func (e errorString) Error() string { return string(e) }

func cb2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
