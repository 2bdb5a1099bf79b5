package lang

import (
	"fmt"
	"strings"
	"unicode"

	"doacross/internal/diag"
)

// TokenKind classifies a lexical token.
type TokenKind int

// Token kinds produced by the lexer.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokNumber
	TokAssign   // =
	TokPlus     // +
	TokMinus    // -
	TokStar     // *
	TokSlash    // /
	TokComma    // ,
	TokColon    // :
	TokLBracket // [ or (
	TokRBracket // ] or )
	TokNewline  // statement separator
	TokRel      // relational operator: < <= > >= == !=
)

// String names the token kind.
func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "EOF"
	case TokIdent:
		return "identifier"
	case TokNumber:
		return "number"
	case TokAssign:
		return "'='"
	case TokPlus:
		return "'+'"
	case TokMinus:
		return "'-'"
	case TokStar:
		return "'*'"
	case TokSlash:
		return "'/'"
	case TokComma:
		return "','"
	case TokColon:
		return "':'"
	case TokLBracket:
		return "'['"
	case TokRBracket:
		return "']'"
	case TokNewline:
		return "newline"
	case TokRel:
		return "relational operator"
	}
	return fmt.Sprintf("TokenKind(%d)", int(k))
}

// Token is one lexical token with its source position.
type Token struct {
	Kind TokenKind
	Text string
	Line int
	Col  int
	// Paren is true for bracket tokens written with parentheses, so the
	// parser can distinguish A(I) from a parenthesized expression when
	// needed. The grammar treats ( and [ uniformly after an identifier.
	Paren bool
}

// Lexer tokenizes loop source text. Newlines are significant (they terminate
// statements); '!' and '//' start comments running to end of line.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (lx *Lexer) peek() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *Lexer) peek2() byte {
	if lx.pos+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

// Next returns the next token. Consecutive newlines are collapsed into one
// TokNewline token.
func (lx *Lexer) Next() (Token, error) {
	for {
		// Skip horizontal whitespace and comments.
		for lx.pos < len(lx.src) {
			c := lx.peek()
			if c == ' ' || c == '\t' || c == '\r' {
				lx.advance()
				continue
			}
			// '!' introduces a comment unless it spells the '!=' operator.
			if (c == '!' && lx.peek2() != '=') || (c == '/' && lx.peek2() == '/') {
				for lx.pos < len(lx.src) && lx.peek() != '\n' {
					lx.advance()
				}
				continue
			}
			break
		}
		if lx.pos >= len(lx.src) {
			return Token{Kind: TokEOF, Line: lx.line, Col: lx.col}, nil
		}
		line, col := lx.line, lx.col
		c := lx.peek()
		switch {
		case c == '\n' || c == ';':
			for lx.pos < len(lx.src) {
				c = lx.peek()
				if c == '\n' || c == ';' || c == ' ' || c == '\t' || c == '\r' {
					lx.advance()
					continue
				}
				break
			}
			return Token{Kind: TokNewline, Text: "\n", Line: line, Col: col}, nil
		case isIdentStart(c):
			start := lx.pos
			for lx.pos < len(lx.src) && isIdentPart(lx.peek()) {
				lx.advance()
			}
			return Token{Kind: TokIdent, Text: lx.src[start:lx.pos], Line: line, Col: col}, nil
		case unicode.IsDigit(rune(c)) || (c == '.' && unicode.IsDigit(rune(lx.peek2()))):
			start := lx.pos
			seenDot := false
			for lx.pos < len(lx.src) {
				c = lx.peek()
				if unicode.IsDigit(rune(c)) {
					lx.advance()
					continue
				}
				if c == '.' && !seenDot {
					seenDot = true
					lx.advance()
					continue
				}
				break
			}
			return Token{Kind: TokNumber, Text: lx.src[start:lx.pos], Line: line, Col: col}, nil
		default:
			lx.advance()
			switch c {
			case '=':
				if lx.peek() == '=' {
					lx.advance()
					return Token{Kind: TokRel, Text: "==", Line: line, Col: col}, nil
				}
				return Token{Kind: TokAssign, Text: "=", Line: line, Col: col}, nil
			case '<':
				if lx.peek() == '=' {
					lx.advance()
					return Token{Kind: TokRel, Text: "<=", Line: line, Col: col}, nil
				}
				return Token{Kind: TokRel, Text: "<", Line: line, Col: col}, nil
			case '>':
				if lx.peek() == '=' {
					lx.advance()
					return Token{Kind: TokRel, Text: ">=", Line: line, Col: col}, nil
				}
				return Token{Kind: TokRel, Text: ">", Line: line, Col: col}, nil
			case '!':
				if lx.peek() == '=' {
					lx.advance()
					return Token{Kind: TokRel, Text: "!=", Line: line, Col: col}, nil
				}
				return Token{}, diag.Errorf("lang", diag.Pos{Line: line, Col: col}, "unexpected '!'")
			case '+':
				return Token{Kind: TokPlus, Text: "+", Line: line, Col: col}, nil
			case '-':
				return Token{Kind: TokMinus, Text: "-", Line: line, Col: col}, nil
			case '*':
				return Token{Kind: TokStar, Text: "*", Line: line, Col: col}, nil
			case '/':
				return Token{Kind: TokSlash, Text: "/", Line: line, Col: col}, nil
			case ',':
				return Token{Kind: TokComma, Text: ",", Line: line, Col: col}, nil
			case ':':
				return Token{Kind: TokColon, Text: ":", Line: line, Col: col}, nil
			case '[':
				return Token{Kind: TokLBracket, Text: "[", Line: line, Col: col}, nil
			case ']':
				return Token{Kind: TokRBracket, Text: "]", Line: line, Col: col}, nil
			case '(':
				return Token{Kind: TokLBracket, Text: "(", Line: line, Col: col, Paren: true}, nil
			case ')':
				return Token{Kind: TokRBracket, Text: ")", Line: line, Col: col, Paren: true}, nil
			}
			return Token{}, diag.Errorf("lang", diag.Pos{Line: line, Col: col}, "unexpected character %q", string(rune(c)))
		}
	}
}

// Tokenize returns all tokens of src, ending with TokEOF.
func Tokenize(src string) ([]Token, error) {
	lx := NewLexer(src)
	// Loop sources average under two bytes per token, so a fixed ratio of
	// len(src) either regrows or wastes memory. maxTokens bounds the count
	// in one cheap pass, so the slice is allocated once.
	out := make([]Token, 0, maxTokens(src))
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}

// maxTokens returns an upper bound on the number of tokens Tokenize returns
// for src, TokEOF included, in one pass over the bytes. Every token but
// TokEOF starts at a byte that the count counts: an identifier at a letter
// not continuing an identifier, a number at a digit continuing neither an
// identifier nor a number, or at a '.', and any other token at its first
// byte. Blanks and comments count nothing. Over-counting is limited to
// two-byte operators, decimal points and runs of separators.
func maxTokens(src string) int {
	const (
		none = iota
		ident
		number
	)
	n, run := 1, none
	for i := 0; i < len(src); i++ {
		c := src[i]
		next := byte(0)
		if i+1 < len(src) {
			next = src[i+1]
		}
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			run = none
		case (c == '!' && next != '=') || (c == '/' && next == '/'):
			for i+1 < len(src) && src[i+1] != '\n' {
				i++
			}
			run = none
		case isIdentStart(c):
			if run != ident {
				n, run = n+1, ident
			}
		case unicode.IsDigit(rune(c)):
			if run == none {
				n, run = n+1, number
			}
		case c == '.':
			n, run = n+1, number
		default:
			n, run = n+1, none
		}
	}
	return n
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// keywordOf reports the canonical keyword for an identifier, or "".
func keywordOf(ident string) string {
	up := strings.ToUpper(ident)
	switch up {
	case "DO", "DOACROSS", "ENDDO", "END_DOACROSS", "IF":
		return up
	}
	return ""
}
