package sql

import "fmt"

// tokenKind enumerates lexical token categories.
type tokenKind int

// Token kinds.
const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokOp
)

// token is one lexical token with its source position (byte offset).
type token struct {
	Kind tokenKind
	Text string // keywords are upper-cased; identifiers keep their case
	Pos  int
}

func (t token) String() string {
	switch t.Kind {
	case tokEOF:
		return "end of query"
	case tokString:
		return fmt.Sprintf("'%s'", t.Text)
	default:
		return t.Text
	}
}

// keywords is the reserved-word set. Identifiers matching these (case
// insensitively) lex as tokKeyword with upper-cased text.
var keywords = map[string]bool{
	"SELECT": true, "DISTINCT": true, "AS": true, "FROM": true,
	"WHERE": true, "GROUP": true, "BY": true, "HAVING": true,
	"ORDER": true, "ASC": true, "DESC": true, "LIMIT": true,
	"AND": true, "OR": true, "NOT": true, "IN": true,
	"BETWEEN": true, "IS": true, "NULL": true, "LIKE": true,
	"TRUE": true, "FALSE": true,
	"CASE": true, "WHEN": true, "THEN": true, "ELSE": true, "END": true,
}
