package sql

import (
	"fmt"
	"strings"
)

// lex scans a query into tokens. String literals use single quotes with ”
// escaping. Identifiers may be double-quoted to include spaces or clash
// with keywords.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-': // line comment
			for i < n && input[i] != '\n' {
				i++
			}
		case isDigit(c) || (c == '.' && i+1 < n && isDigit(input[i+1])):
			start := i
			seenDot, seenExp := false, false
			for i < n {
				ch := input[i]
				if isDigit(ch) {
					i++
					continue
				}
				if ch == '.' && !seenDot && !seenExp {
					seenDot = true
					i++
					continue
				}
				if (ch == 'e' || ch == 'E') && !seenExp && i+1 < n &&
					(isDigit(input[i+1]) || ((input[i+1] == '+' || input[i+1] == '-') && i+2 < n && isDigit(input[i+2]))) {
					seenExp = true
					i++
					if input[i] == '+' || input[i] == '-' {
						i++
					}
					continue
				}
				break
			}
			toks = append(toks, token{Kind: tokNumber, Text: input[start:i], Pos: start})
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' {
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sql: unterminated string literal at offset %d", start)
			}
			toks = append(toks, token{Kind: tokString, Text: sb.String(), Pos: start})
		case c == '"':
			start := i
			i++
			j := strings.IndexByte(input[i:], '"')
			if j < 0 {
				return nil, fmt.Errorf("sql: unterminated quoted identifier at offset %d", start)
			}
			toks = append(toks, token{Kind: tokIdent, Text: input[i : i+j], Pos: start})
			i += j + 1
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(input[i]) {
				i++
			}
			word := input[start:i]
			upper := strings.ToUpper(word)
			if keywords[upper] {
				toks = append(toks, token{Kind: tokKeyword, Text: upper, Pos: start})
			} else {
				toks = append(toks, token{Kind: tokIdent, Text: word, Pos: start})
			}
		default:
			start := i
			var op string
			switch c {
			case '<':
				if i+1 < n && (input[i+1] == '=' || input[i+1] == '>') {
					op = input[i : i+2]
				} else {
					op = "<"
				}
			case '>':
				if i+1 < n && input[i+1] == '=' {
					op = ">="
				} else {
					op = ">"
				}
			case '!':
				if i+1 < n && input[i+1] == '=' {
					op = "!="
				} else {
					return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
				}
			case '=', '+', '-', '*', '/', '(', ')', ',', ';', '%':
				op = string(c)
			default:
				return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
			}
			toks = append(toks, token{Kind: tokOp, Text: op, Pos: start})
			i += len(op)
		}
	}
	toks = append(toks, token{Kind: tokEOF, Pos: n})
	return toks, nil
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) }
