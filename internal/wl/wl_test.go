package wl

import (
	"strings"
	"testing"
)

func TestLexBasics(t *testing.T) {
	toks, err := lexAll("func main() { var x = 1 + 23; } // comment\n")
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{KwFunc, IDENT, LParen, RParen, LBrace, KwVar, IDENT, Assign, INT, Add, INT, Semi, RBrace, EOF}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Fatalf("token %d = %v, want %v", i, toks[i].Kind, k)
		}
	}
	if toks[8].Val != 1 || toks[10].Val != 23 {
		t.Fatalf("integer values wrong: %v", toks)
	}
}

func TestLexOperators(t *testing.T) {
	toks, err := lexAll("< <= > >= == != = ! && & || | ^ << >> + - * / %")
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{Lt, Le, Gt, Ge, Eq, Ne, Assign, Not, AndAnd, And, OrOr, Or, Xor, Shl, Shr, Add, Sub, Mul, Div, Rem, EOF}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Fatalf("token %d = %v, want %v", i, toks[i].Kind, k)
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := lexAll("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos != (Pos{1, 1}) || toks[1].Pos != (Pos{2, 3}) {
		t.Fatalf("positions: %v %v", toks[0].Pos, toks[1].Pos)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := lexAll("@"); err == nil {
		t.Fatal("expected error for @")
	}
	if _, err := lexAll("99999999999999999999999999"); err == nil {
		t.Fatal("expected error for overflowing literal")
	}
}

const goodProgram = `
// Computes triangular numbers.
func main(n) {
    var total = 0;
    var i = 1;
    while i <= n {
        total = total + i;
        i = i + 1;
    }
    if total > 100 && n != 0 {
        return total;
    } else if total == 0 {
        return 0 - 1;
    }
    return total;
}

func helper(a, b) {
    var c = array(8);
    c[0] = a;
    c[1] = b;
    print c[0], c[1], len(c);
    return c[0] + c[1];
}
`

func TestParseGoodProgram(t *testing.T) {
	f, err := Parse(goodProgram)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Funcs) != 2 {
		t.Fatalf("got %d functions", len(f.Funcs))
	}
	if f.Funcs[0].Name != "main" || len(f.Funcs[0].Params) != 1 {
		t.Fatalf("main signature wrong: %+v", f.Funcs[0])
	}
	if f.Funcs[1].Name != "helper" || len(f.Funcs[1].Params) != 2 {
		t.Fatalf("helper signature wrong: %+v", f.Funcs[1])
	}
	if err := Check(f); err != nil {
		t.Fatal(err)
	}
}

func TestParsePrecedence(t *testing.T) {
	f, err := Parse("func main() { return 1 + 2 * 3 == 7; }")
	if err != nil {
		t.Fatal(err)
	}
	ret := f.Funcs[0].Body.Stmts[0].(*ReturnStmt)
	eq := ret.Value.(*BinaryExpr)
	if eq.Op != Eq {
		t.Fatalf("top operator = %v, want ==", eq.Op)
	}
	add := eq.X.(*BinaryExpr)
	if add.Op != Add {
		t.Fatalf("left of == is %v, want +", add.Op)
	}
	mul := add.Y.(*BinaryExpr)
	if mul.Op != Mul {
		t.Fatalf("right of + is %v, want *", mul.Op)
	}
}

func TestParseLeftAssociativity(t *testing.T) {
	f, err := Parse("func main() { return 10 - 3 - 2; }")
	if err != nil {
		t.Fatal(err)
	}
	ret := f.Funcs[0].Body.Stmts[0].(*ReturnStmt)
	outer := ret.Value.(*BinaryExpr)
	if outer.Op != Sub {
		t.Fatal("top not Sub")
	}
	if _, ok := outer.X.(*BinaryExpr); !ok {
		t.Fatal("10-3-2 must parse as (10-3)-2")
	}
	if lit, ok := outer.Y.(*IntLit); !ok || lit.Val != 2 {
		t.Fatal("rightmost operand must be 2")
	}
}

func TestParseUnaryAndParens(t *testing.T) {
	f, err := Parse("func main() { return -(1 + 2) * !0; }")
	if err != nil {
		t.Fatal(err)
	}
	ret := f.Funcs[0].Body.Stmts[0].(*ReturnStmt)
	mul := ret.Value.(*BinaryExpr)
	if mul.Op != Mul {
		t.Fatalf("top = %v", mul.Op)
	}
	if _, ok := mul.X.(*UnaryExpr); !ok {
		t.Fatal("left of * must be unary negation")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"func",
		"func main( {",
		"func main() { var = 1; }",
		"func main() { x 1; }",
		"func main() { if { } }",
		"func main() { return 1 }",
		"func main() { a[1 = 2; }",
		"1 + 2",
		"func main() { while }",
		"func main() { var x = ; }",
		"func main() { print; }",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func mustParse(t *testing.T, src string) *File {
	t.Helper()
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCheckErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"no main", "func f() { return 0; }", "no main"},
		{"dup func", "func main() { return 0; } func main() { return 1; }", "redeclared"},
		{"shadow builtin", "func len(x) { return 0; } func main() { return 0; }", "shadows"},
		{"undeclared", "func main() { return x; }", "undeclared"},
		{"undeclared assign", "func main() { x = 1; return 0; }", "undeclared"},
		{"redeclared var", "func main() { var x = 1; var x = 2; return x; }", "redeclared"},
		{"dup param", "func main(a, a) { return a; }", "repeated"},
		{"bad arity", "func f(a) { return a; } func main() { return f(1, 2); }", "argument"},
		{"unknown func", "func main() { return g(); }", "undefined"},
		{"break outside", "func main() { break; }", "break outside"},
		{"continue outside", "func main() { continue; }", "continue outside"},
		{"len arity", "func main() { return len(1, 2); }", "1 argument"},
		{"use before decl", "func main() { var a = b; var b = 1; return a; }", "undeclared"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := Check(mustParse(t, c.src))
			if err == nil {
				t.Fatalf("Check passed, want error containing %q", c.wantSub)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error %q does not contain %q", err, c.wantSub)
			}
		})
	}
}

func TestCheckAllowsLaterFunctionUse(t *testing.T) {
	src := "func main() { return g(); } func g() { return 7; }"
	if err := Check(mustParse(t, src)); err != nil {
		t.Fatal(err)
	}
}

func TestCheckVarVisibleAfterInnerBlock(t *testing.T) {
	src := "func main() { if 1 { var x = 3; } return 0; }"
	if err := Check(mustParse(t, src)); err != nil {
		t.Fatal(err)
	}
}

func TestParseFor(t *testing.T) {
	f := mustParse(t, `func main(n) {
		for var i = 0; i < n; i = i + 1 { print i; }
		for ;; { break; }
		for ; n > 0; { n = n - 1; }
		var j = 0;
		for j = 1; j < 3; j = j + 1 { }
		return 0;
	}`)
	if err := Check(f); err != nil {
		t.Fatal(err)
	}
	first := f.Funcs[0].Body.Stmts[0].(*ForStmt)
	if _, ok := first.Init.(*VarStmt); !ok {
		t.Fatal("for init not a var declaration")
	}
	if first.Cond == nil || first.Post == nil {
		t.Fatal("for parts missing")
	}
	inf := f.Funcs[0].Body.Stmts[1].(*ForStmt)
	if inf.Init != nil || inf.Cond != nil || inf.Post != nil {
		t.Fatal("empty for parts not nil")
	}
}

func TestParseForErrors(t *testing.T) {
	bad := []string{
		"func main() { for var i = 0; i < 3; var j = 1 { } return 0; }", // decl in post
		"func main() { for i = 0 { } return 0; }",                       // missing parts
		"func main() { for ; ; i = }",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestCheckForStmt(t *testing.T) {
	// Variables declared in for-init are function-scoped and checked.
	if err := Check(mustParse(t, "func main() { for var i = 0; i < 3; i = i + 1 { } return i; }")); err != nil {
		t.Fatal(err)
	}
	// break in for body is legal; continue too.
	if err := Check(mustParse(t, "func main() { for ;; { continue; } }")); err != nil {
		t.Fatal(err)
	}
	// Undeclared in cond.
	if err := Check(mustParse(t, "func main() { for ; q < 1; { } return 0; }")); err == nil {
		t.Fatal("undeclared cond variable accepted")
	}
}

func TestTokenAndErrorStrings(t *testing.T) {
	if (Token{Kind: IDENT, Text: "abc"}).String() != "abc" {
		t.Fatal("ident token string")
	}
	if (Token{Kind: INT, Val: 5}).String() != "5" {
		t.Fatal("int token string")
	}
	e := errf(Pos{3, 4}, "boom %d", 1)
	if e.Error() != "3:4: boom 1" {
		t.Fatalf("error string = %q", e.Error())
	}
	if Kind(200).String() == "" {
		t.Fatal("unknown kind string empty")
	}
}

// lexAll tokenizes the whole input.
func lexAll(src string) ([]Token, error) {
	l := NewLexer(src)
	var toks []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}
