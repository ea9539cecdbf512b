package sql

import "testing"

func TestLexBasics(t *testing.T) {
	toks, err := lex("SELECT a, count(*) FROM t WHERE x >= 1.5 AND name = 'o''brien'")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	wantTexts := []string{"SELECT", "a", ",", "count", "(", "*", ")", "FROM", "t",
		"WHERE", "x", ">=", "1.5", "AND", "name", "=", "o'brien", ""}
	if len(texts) != len(wantTexts) {
		t.Fatalf("token texts = %q", texts)
	}
	for i := range wantTexts {
		if texts[i] != wantTexts[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], wantTexts[i])
		}
	}
	if kinds[0] != tokKeyword || kinds[1] != tokIdent || kinds[16] != tokString {
		t.Errorf("kinds wrong: %v", kinds)
	}
}

func TestLexNumbers(t *testing.T) {
	for _, in := range []string{"1", "12.5", ".5", "1e3", "2.5E-2", "3e+4"} {
		toks, err := lex(in)
		if err != nil {
			t.Fatalf("lex(%q): %v", in, err)
		}
		if len(toks) != 2 || toks[0].Kind != tokNumber || toks[0].Text != in {
			t.Errorf("lex(%q) = %v", in, toks)
		}
	}
}

func TestLexKeywordCaseInsensitive(t *testing.T) {
	toks, err := lex("select From wHeRe")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SELECT", "FROM", "WHERE"} {
		found := false
		for _, tok := range toks {
			if tok.Kind == tokKeyword && tok.Text == want {
				found = true
			}
		}
		if !found {
			t.Errorf("keyword %s not recognised", want)
		}
	}
}

func TestLexQuotedIdent(t *testing.T) {
	toks, err := lex(`"group by" = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != tokIdent || toks[0].Text != "group by" {
		t.Errorf("quoted identifier = %v", toks[0])
	}
}

func TestLexComment(t *testing.T) {
	toks, err := lex("SELECT 1 -- trailing comment\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 { // SELECT, 1, EOF
		t.Errorf("tokens = %v", toks)
	}
}

func TestLexErrors(t *testing.T) {
	for _, in := range []string{"'unterminated", `"unterminated`, "a ! b", "a @ b"} {
		if _, err := lex(in); err == nil {
			t.Errorf("lex(%q) should fail", in)
		}
	}
}

func TestLexOperators(t *testing.T) {
	toks, err := lex("<> != <= >= < > = + - * / %")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"<>", "!=", "<=", ">=", "<", ">", "=", "+", "-", "*", "/", "%"}
	for i, w := range want {
		if toks[i].Text != w {
			t.Errorf("op %d = %q, want %q", i, toks[i].Text, w)
		}
	}
}
