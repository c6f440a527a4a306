package wl

import (
	"strconv"
)

// Lexer turns WL source text into tokens. Comments run from "//" to end of
// line.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (l *Lexer) pos() Pos { return Pos{l.line, l.col} }

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

func isLetter(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token, or an EOF token at the end of input.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	pos := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: EOF, Pos: pos}, nil
	}
	c := l.peek()
	switch {
	case isLetter(c):
		start := l.off
		for l.off < len(l.src) && (isLetter(l.peek()) || isDigit(l.peek())) {
			l.advance()
		}
		word := l.src[start:l.off]
		if k, ok := keywords[word]; ok {
			return Token{Kind: k, Pos: pos}, nil
		}
		return Token{Kind: IDENT, Pos: pos, Text: word}, nil
	case isDigit(c):
		start := l.off
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
		v, err := strconv.ParseInt(l.src[start:l.off], 10, 64)
		if err != nil {
			return Token{}, errf(pos, "integer literal %q out of range", l.src[start:l.off])
		}
		return Token{Kind: INT, Pos: pos, Val: v}, nil
	}
	l.advance()
	two := func(next byte, ifTwo, ifOne Kind) (Token, error) {
		if l.peek() == next {
			l.advance()
			return Token{Kind: ifTwo, Pos: pos}, nil
		}
		return Token{Kind: ifOne, Pos: pos}, nil
	}
	switch c {
	case '(':
		return Token{Kind: LParen, Pos: pos}, nil
	case ')':
		return Token{Kind: RParen, Pos: pos}, nil
	case '{':
		return Token{Kind: LBrace, Pos: pos}, nil
	case '}':
		return Token{Kind: RBrace, Pos: pos}, nil
	case '[':
		return Token{Kind: LBrack, Pos: pos}, nil
	case ']':
		return Token{Kind: RBrack, Pos: pos}, nil
	case ',':
		return Token{Kind: Comma, Pos: pos}, nil
	case ';':
		return Token{Kind: Semi, Pos: pos}, nil
	case '+':
		return Token{Kind: Add, Pos: pos}, nil
	case '-':
		return Token{Kind: Sub, Pos: pos}, nil
	case '*':
		return Token{Kind: Mul, Pos: pos}, nil
	case '/':
		return Token{Kind: Div, Pos: pos}, nil
	case '%':
		return Token{Kind: Rem, Pos: pos}, nil
	case '^':
		return Token{Kind: Xor, Pos: pos}, nil
	case '=':
		return two('=', Eq, Assign)
	case '!':
		return two('=', Ne, Not)
	case '<':
		if l.peek() == '<' {
			l.advance()
			return Token{Kind: Shl, Pos: pos}, nil
		}
		return two('=', Le, Lt)
	case '>':
		if l.peek() == '>' {
			l.advance()
			return Token{Kind: Shr, Pos: pos}, nil
		}
		return two('=', Ge, Gt)
	case '&':
		return two('&', AndAnd, And)
	case '|':
		return two('|', OrOr, Or)
	}
	return Token{}, errf(pos, "unexpected character %q", string(c))
}
