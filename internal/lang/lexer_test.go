package lang

import (
	"math/rand"
	"testing"

	"doacross/internal/loopgen"
)

func kinds(ts []Token) []TokenKind {
	out := make([]TokenKind, len(ts))
	for i, t := range ts {
		out[i] = t.Kind
	}
	return out
}

func TestTokenizeSimpleStatement(t *testing.T) {
	toks, err := Tokenize("A[I-2] = B[I] + 3")
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{
		TokIdent, TokLBracket, TokIdent, TokMinus, TokNumber, TokRBracket,
		TokAssign, TokIdent, TokLBracket, TokIdent, TokRBracket,
		TokPlus, TokNumber, TokEOF,
	}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("token count = %d, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTokenizeCollapsesNewlines(t *testing.T) {
	toks, err := Tokenize("A = 1\n\n\nB = 2")
	if err != nil {
		t.Fatal(err)
	}
	newlines := 0
	for _, tk := range toks {
		if tk.Kind == TokNewline {
			newlines++
		}
	}
	if newlines != 1 {
		t.Errorf("got %d newline tokens, want 1", newlines)
	}
}

func TestTokenizeComments(t *testing.T) {
	for _, src := range []string{
		"A = 1 ! trailing comment",
		"A = 1 // c-style comment",
		"! full line\nA = 1",
	} {
		toks, err := Tokenize(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		var idents, nums int
		for _, tk := range toks {
			switch tk.Kind {
			case TokIdent:
				idents++
			case TokNumber:
				nums++
			}
		}
		if idents != 1 || nums != 1 {
			t.Errorf("%q: idents=%d nums=%d, want 1,1", src, idents, nums)
		}
	}
}

func TestTokenizeSemicolonAsSeparator(t *testing.T) {
	toks, err := Tokenize("A = 1; B = 2")
	if err != nil {
		t.Fatal(err)
	}
	sawNewline := false
	for _, tk := range toks {
		if tk.Kind == TokNewline {
			sawNewline = true
		}
	}
	if !sawNewline {
		t.Error("semicolon should produce a statement separator token")
	}
}

func TestTokenizeParenStyle(t *testing.T) {
	toks, err := Tokenize("A(I)")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Kind != TokLBracket || !toks[1].Paren {
		t.Errorf("expected paren-flavored LBracket, got %+v", toks[1])
	}
}

func TestTokenizePositions(t *testing.T) {
	toks, err := Tokenize("A = 1\nBB = 2")
	if err != nil {
		t.Fatal(err)
	}
	// Find BB.
	for _, tk := range toks {
		if tk.Text == "BB" {
			if tk.Line != 2 || tk.Col != 1 {
				t.Errorf("BB at line %d col %d, want 2,1", tk.Line, tk.Col)
			}
			return
		}
	}
	t.Fatal("BB token not found")
}

func TestTokenizeFloats(t *testing.T) {
	toks, err := Tokenize("X = 3.25")
	if err != nil {
		t.Fatal(err)
	}
	if toks[2].Kind != TokNumber || toks[2].Text != "3.25" {
		t.Errorf("got %+v, want number 3.25", toks[2])
	}
}

func TestTokenizeRejectsGarbage(t *testing.T) {
	if _, err := Tokenize("A = #"); err == nil {
		t.Error("expected error for '#'")
	}
}

// TestMaxTokensBound: maxTokens never undercounts, on random text over the
// lexer's alphabet (comments, decimal points, two-byte operators and
// identifier/number boundaries included).
func TestMaxTokensBound(t *testing.T) {
	const alphabet = "AI2_9.. \n;!=/<>+-*()[],:\t\xc4"
	r := rand.New(rand.NewSource(1))
	buf := make([]byte, 40)
	for i := 0; i < 20000; i++ {
		b := buf[:r.Intn(len(buf))]
		for j := range b {
			b[j] = alphabet[r.Intn(len(alphabet))]
		}
		toks, err := Tokenize(string(b))
		if err != nil {
			continue
		}
		if bound := maxTokens(string(b)); bound < len(toks) {
			t.Fatalf("maxTokens(%q) = %d, Tokenize returns %d tokens", b, bound, len(toks))
		}
	}
}

// TestTokenizeAllocatesOnce: Tokenize sizes its token slice once, on the
// paper's Fig. 1 and on generated loops.
func TestTokenizeAllocatesOnce(t *testing.T) {
	srcs := append([]string{fig1Source}, loopgen.Suite(7, 200)...)
	for _, src := range srcs {
		var err error
		if allocs := testing.AllocsPerRun(5, func() { _, err = Tokenize(src) }); allocs != 1 {
			t.Errorf("Tokenize: %v allocs, want 1, on\n%s", allocs, src)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}
