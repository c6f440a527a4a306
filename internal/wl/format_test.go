package wl

import (
	"reflect"
	"strings"
	"testing"
)

// stripPositions deep-copies the AST with all Pos fields zeroed, so
// structural comparison ignores layout.
func stripPositions(f *File) *File {
	out := &File{}
	for _, fn := range f.Funcs {
		out.Funcs = append(out.Funcs, &FuncDecl{
			Name:   fn.Name,
			Params: append([]string{}, fn.Params...),
			Body:   stripBlock(fn.Body),
		})
	}
	return out
}

func stripBlock(b *BlockStmt) *BlockStmt {
	out := &BlockStmt{}
	for _, s := range b.Stmts {
		out.Stmts = append(out.Stmts, stripStmt(s))
	}
	return out
}

func stripStmt(s Stmt) Stmt {
	switch s := s.(type) {
	case *BlockStmt:
		return stripBlock(s)
	case *VarStmt:
		return &VarStmt{Name: s.Name, Init: stripExpr(s.Init)}
	case *AssignStmt:
		out := &AssignStmt{Name: s.Name, Value: stripExpr(s.Value)}
		if s.Index != nil {
			out.Index = stripExpr(s.Index)
		}
		return out
	case *IfStmt:
		out := &IfStmt{Cond: stripExpr(s.Cond), Then: stripBlock(s.Then)}
		if s.Else != nil {
			out.Else = stripStmt(s.Else)
		}
		return out
	case *WhileStmt:
		return &WhileStmt{Cond: stripExpr(s.Cond), Body: stripBlock(s.Body)}
	case *ForStmt:
		out := &ForStmt{Body: stripBlock(s.Body)}
		if s.Init != nil {
			out.Init = stripStmt(s.Init)
		}
		if s.Cond != nil {
			out.Cond = stripExpr(s.Cond)
		}
		if s.Post != nil {
			out.Post = stripStmt(s.Post)
		}
		return out
	case *ReturnStmt:
		out := &ReturnStmt{}
		if s.Value != nil {
			out.Value = stripExpr(s.Value)
		}
		return out
	case *BreakStmt:
		return &BreakStmt{}
	case *ContinueStmt:
		return &ContinueStmt{}
	case *PrintStmt:
		out := &PrintStmt{}
		for _, a := range s.Args {
			out.Args = append(out.Args, stripExpr(a))
		}
		return out
	case *ExprStmt:
		return &ExprStmt{X: stripExpr(s.X)}
	}
	return s
}

func stripExpr(e Expr) Expr {
	switch e := e.(type) {
	case *IntLit:
		return &IntLit{Val: e.Val}
	case *Ident:
		return &Ident{Name: e.Name}
	case *IndexExpr:
		return &IndexExpr{Name: e.Name, Index: stripExpr(e.Index)}
	case *CallExpr:
		out := &CallExpr{Name: e.Name}
		for _, a := range e.Args {
			out.Args = append(out.Args, stripExpr(a))
		}
		return out
	case *UnaryExpr:
		return &UnaryExpr{Op: e.Op, X: stripExpr(e.X)}
	case *BinaryExpr:
		return &BinaryExpr{Op: e.Op, X: stripExpr(e.X), Y: stripExpr(e.Y)}
	}
	return e
}

func checkFormatRoundTrip(t *testing.T, src string) {
	t.Helper()
	orig, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	formatted := Format(orig)
	back, err := Parse(formatted)
	if err != nil {
		t.Fatalf("reparse of formatted source: %v\nformatted:\n%s", err, formatted)
	}
	if !reflect.DeepEqual(stripPositions(orig), stripPositions(back)) {
		t.Fatalf("format round trip changed the AST\noriginal:\n%s\nformatted:\n%s", src, formatted)
	}
	// Formatting is idempotent.
	if again := Format(back); again != formatted {
		t.Fatalf("formatting not idempotent:\nfirst:\n%s\nsecond:\n%s", formatted, again)
	}
}

func TestFormatRoundTrips(t *testing.T) {
	sources := []string{
		goodProgram,
		"func main() { return 1 + 2 * 3 == 7; }",
		"func main() { return (1 + 2) * 3; }",
		"func main() { return 10 - 3 - 2; }",
		"func main() { return 10 - (3 - 2); }",
		"func main() { return -(1 + 2) * !0; }",
		"func main() { return 1 << 2 + 3; }",
		"func main() { return (1 && 0) || !(2 < 3); }",
		`func main(n) {
			for var i = 0; i < n; i = i + 1 { print i; }
			for ;; { break; }
			for ; n > 0; { n = n - 1; }
			return 0;
		}`,
		`func main(n) {
			if n < 0 { return 1; }
			else if n == 0 { return 2; }
			else if n == 1 { return 3; }
			else { return 4; }
		}`,
		`func f(a, b, c) { return a; }
		 func main() {
			var x = array(4);
			x[1 + 2] = f(1, 2, 3);
			{ var y = x[0]; print y, x[1]; }
			while x[0] < 5 { x[0] = x[0] + 1; continue; }
			return x[3];
		}`,
		"func main() { return 0 - 9223372036854775807; }",
	}
	for _, src := range sources {
		checkFormatRoundTrip(t, src)
	}
}

func TestFormatPrecedenceExamples(t *testing.T) {
	cases := map[string]string{
		"func main() { return (1 + 2) * 3; }":  "(1 + 2) * 3",
		"func main() { return 1 + 2 * 3; }":    "1 + 2 * 3",
		"func main() { return 10 - (3 - 2); }": "10 - (3 - 2)",
		"func main() { return 10 - 3 - 2; }":   "10 - 3 - 2",
	}
	for src, want := range cases {
		f, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		got := Format(f)
		if !strings.Contains(got, want) {
			t.Errorf("Format(%q) = %q, want it to contain %q", src, got, want)
		}
	}
}

func TestFormatExpr(t *testing.T) {
	f := mustParse(t, "func main() { var x = 1 + 2; return x; }")
	ret := f.Funcs[0].Body.Stmts[1].(*ReturnStmt)
	if got := FormatExpr(ret.Value); got != "x" {
		t.Fatalf("FormatExpr = %q", got)
	}
}
