package wl

import (
	"fmt"
	"strings"
)

// Format renders a parsed file back to canonical WL source. Formatting
// then reparsing yields a structurally identical AST (positions aside),
// which the tests verify; tools use it to display rewritten programs
// (e.g. after the optimizer runs).
func Format(f *File) string {
	var p printer
	for i, fn := range f.Funcs {
		if i > 0 {
			p.sb.WriteByte('\n')
		}
		p.funcDecl(fn)
	}
	return p.sb.String()
}

// FormatExpr renders an expression.
func FormatExpr(e Expr) string {
	var p printer
	p.expr(e, 0)
	return p.sb.String()
}

type printer struct {
	sb     strings.Builder
	indent int
}

func (p *printer) line(format string, args ...any) {
	for i := 0; i < p.indent; i++ {
		p.sb.WriteString("    ")
	}
	fmt.Fprintf(&p.sb, format, args...)
	p.sb.WriteByte('\n')
}

func (p *printer) funcDecl(fn *FuncDecl) {
	p.line("func %s(%s) {", fn.Name, strings.Join(fn.Params, ", "))
	p.indent++
	for _, s := range fn.Body.Stmts {
		p.stmt(s)
	}
	p.indent--
	p.line("}")
}

func (p *printer) stmt(s Stmt) {
	switch s := s.(type) {
	case *BlockStmt:
		p.line("{")
		p.indent++
		for _, st := range s.Stmts {
			p.stmt(st)
		}
		p.indent--
		p.line("}")
	case *VarStmt:
		p.line("var %s = %s;", s.Name, FormatExpr(s.Init))
	case *AssignStmt:
		p.line("%s;", p.assignText(s))
	case *IfStmt:
		p.ifChain(s)
	case *WhileStmt:
		p.line("while %s {", FormatExpr(s.Cond))
		p.indent++
		for _, st := range s.Body.Stmts {
			p.stmt(st)
		}
		p.indent--
		p.line("}")
	case *ForStmt:
		init, cond, post := "", "", ""
		if s.Init != nil {
			switch in := s.Init.(type) {
			case *VarStmt:
				init = fmt.Sprintf("var %s = %s", in.Name, FormatExpr(in.Init))
			case *AssignStmt:
				init = p.assignText(in)
			}
		}
		if s.Cond != nil {
			cond = FormatExpr(s.Cond)
		}
		if s.Post != nil {
			if as, ok := s.Post.(*AssignStmt); ok {
				post = p.assignText(as)
			}
		}
		if post == "" {
			p.line("for %s; %s; {", init, cond)
		} else {
			p.line("for %s; %s; %s {", init, cond, post)
		}
		p.indent++
		for _, st := range s.Body.Stmts {
			p.stmt(st)
		}
		p.indent--
		p.line("}")
	case *ReturnStmt:
		if s.Value == nil {
			p.line("return;")
		} else {
			p.line("return %s;", FormatExpr(s.Value))
		}
	case *BreakStmt:
		p.line("break;")
	case *ContinueStmt:
		p.line("continue;")
	case *PrintStmt:
		parts := make([]string, len(s.Args))
		for i, a := range s.Args {
			parts[i] = FormatExpr(a)
		}
		p.line("print %s;", strings.Join(parts, ", "))
	case *ExprStmt:
		p.line("%s;", FormatExpr(s.X))
	default:
		p.line("/* unknown statement %T */", s)
	}
}

func (p *printer) assignText(s *AssignStmt) string {
	if s.Index != nil {
		return fmt.Sprintf("%s[%s] = %s", s.Name, FormatExpr(s.Index), FormatExpr(s.Value))
	}
	return fmt.Sprintf("%s = %s", s.Name, FormatExpr(s.Value))
}

// ifChain renders if / else-if / else without extra nesting.
func (p *printer) ifChain(s *IfStmt) {
	p.line("if %s {", FormatExpr(s.Cond))
	p.indent++
	for _, st := range s.Then.Stmts {
		p.stmt(st)
	}
	p.indent--
	for s.Else != nil {
		if elif, ok := s.Else.(*IfStmt); ok {
			p.line("} else if %s {", FormatExpr(elif.Cond))
			p.indent++
			for _, st := range elif.Then.Stmts {
				p.stmt(st)
			}
			p.indent--
			s = elif
			continue
		}
		blk := s.Else.(*BlockStmt)
		p.line("} else {")
		p.indent++
		for _, st := range blk.Stmts {
			p.stmt(st)
		}
		p.indent--
		break
	}
	p.line("}")
}

// expr writes e, parenthesizing when the parent context binds tighter.
func (p *printer) expr(e Expr, parentPrec int) {
	switch e := e.(type) {
	case *IntLit:
		if e.Val < 0 {
			// WL has no negative literals; render via subtraction from 0,
			// matching what the parser can read back.
			fmt.Fprintf(&p.sb, "(0 - %d)", -e.Val)
			return
		}
		fmt.Fprintf(&p.sb, "%d", e.Val)
	case *Ident:
		p.sb.WriteString(e.Name)
	case *IndexExpr:
		p.sb.WriteString(e.Name)
		p.sb.WriteByte('[')
		p.expr(e.Index, 0)
		p.sb.WriteByte(']')
	case *CallExpr:
		p.sb.WriteString(e.Name)
		p.sb.WriteByte('(')
		for i, a := range e.Args {
			if i > 0 {
				p.sb.WriteString(", ")
			}
			p.expr(a, 0)
		}
		p.sb.WriteByte(')')
	case *UnaryExpr:
		p.sb.WriteString(e.Op.String())
		// Unary binds tightest; parenthesize any non-primary operand.
		switch e.X.(type) {
		case *IntLit, *Ident, *IndexExpr, *CallExpr:
			p.expr(e.X, 0)
		default:
			p.sb.WriteByte('(')
			p.expr(e.X, 0)
			p.sb.WriteByte(')')
		}
	case *BinaryExpr:
		prec := precedence[e.Op]
		if prec <= parentPrec {
			p.sb.WriteByte('(')
		}
		p.expr(e.X, prec-1) // left-associative: equal precedence on the left needs no parens
		fmt.Fprintf(&p.sb, " %s ", e.Op)
		p.expr(e.Y, prec) // right operand of equal precedence must parenthesize
		if prec <= parentPrec {
			p.sb.WriteByte(')')
		}
	default:
		fmt.Fprintf(&p.sb, "/* unknown expr %T */", e)
	}
}
