package wire

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// textWords is the text grammar's vocabulary: every word but distinct takes
// one argument, named here for the "needs" error.
var textWords = map[string]string{
	"from":    "a relation list",
	"eq":      "A=B",
	"where":   "a condition",
	"project": "an attribute list",
	"orderby": "a key list (e.g. A,-B)",
	"limit":   "a count",
	"offset":  "a count",
	"groupby": "an attribute list",
	"agg":     "a function (count, sum(A), min(A), max(A), distinct(A))",
}

// textOps lists the comparison tokens longest first: where two start at the
// same place, "<=" is not read as "<" followed by a value starting with "=".
var textOps = []struct {
	tok string
	op  byte
}{{"!=", OpNE}, {"<=", OpLE}, {">=", OpGE}, {"<", OpLT}, {">", OpGT}, {"=", OpEQ}}

var textAggs = map[string]byte{
	"sum": AggSum, "min": AggMin, "max": AggMax, "distinct": AggCountDistinct, "count_distinct": AggCountDistinct,
}

// SplitLine splits a text line into words at unquoted whitespace. A
// double-quoted stretch, in Go syntax, stays in its word with its quotes
// and escapes, so a word can hold a space (where R.item="Ice Cream", load
// "my file.tsv"); Unquote reads its value. A quote left open fails.
func SplitLine(line string) ([]string, error) {
	var words []string
	start, quoted, escaped := -1, false, false
	for i, r := range line {
		switch {
		case escaped:
			escaped = false
		case quoted && r == '\\':
			escaped = true
		case r == '"':
			quoted = !quoted
		case !quoted && unicode.IsSpace(r):
			if start >= 0 {
				words = append(words, line[start:i])
				start = -1
			}
			continue
		}
		if start < 0 {
			start = i
		}
	}
	if quoted {
		return nil, fmt.Errorf("unterminated quote in %q", line)
	}
	if start >= 0 {
		words = append(words, line[start:])
	}
	return words, nil
}

// Unquote reads a word as a value: a word in double quotes is the string
// strconv.Unquote reads from it (quoted true), any other word itself.
func Unquote(word string) (s string, quoted bool, err error) {
	if !strings.HasPrefix(word, `"`) {
		return word, false, nil
	}
	if s, err = strconv.Unquote(word); err != nil {
		return "", true, fmt.Errorf("bad quoted string %s", word)
	}
	return s, true, nil
}

// ParseSpec parses the text form of a query, split into words by
// SplitLine:
//
//	from R1,R2 [eq A=B ...] [where ATTR(=|!=|<|<=|>|>=)VAL ...] [project A,B]
//	[orderby A,-B] [limit N] [offset N] [distinct]
//	[groupby A,B] [agg count|sum(A)|min(A)|max(A)|distinct(A) ...]
//
// Words may come in any order and every list word may repeat; limit,
// offset, orderby and distinct may not. A where condition is cut at its
// first operator, so the value may hold operator characters. A where value
// in double quotes is a string constant, whatever it holds; otherwise $name
// is a parameter bound at Exec, an integer is an integer constant, and
// anything else a string constant. An orderby key with a leading '-' sorts
// descending. count_distinct(A) is accepted for distinct(A).
func ParseSpec(tokens []string) (*Spec, error) {
	sp := NewSpec()
	once := map[string]bool{}
	for i := 0; i < len(tokens); i++ {
		word := tokens[i]
		switch word {
		case "limit", "offset", "orderby", "distinct":
			if once[word] {
				return nil, fmt.Errorf("%s given twice", word)
			}
			once[word] = true
		}
		if word == "distinct" {
			sp.Distinct = true
			continue
		}
		needs, ok := textWords[word]
		if !ok {
			return nil, fmt.Errorf("unexpected token %q", word)
		}
		if i+1 >= len(tokens) {
			return nil, fmt.Errorf("%s needs %s", word, needs)
		}
		i++
		arg := tokens[i]
		var err error
		switch word {
		case "from":
			sp.From = append(sp.From, strings.Split(arg, ",")...)
		case "eq":
			a, b, ok := strings.Cut(arg, "=")
			if !ok {
				return nil, fmt.Errorf("bad eq %q", arg)
			}
			sp.Eqs = append(sp.Eqs, [2]string{a, b})
		case "where":
			err = sp.parseWhere(arg)
		case "project":
			sp.Project = append(sp.Project, strings.Split(arg, ",")...)
		case "orderby":
			for _, k := range strings.Split(arg, ",") {
				attr, desc := strings.CutPrefix(k, "-")
				sp.OrderBy = append(sp.OrderBy, OrderKey{Attr: attr, Desc: desc})
			}
		case "limit":
			sp.Limit, err = parseCount(word, arg)
		case "offset":
			sp.Offset, err = parseCount(word, arg)
		case "groupby":
			sp.GroupBy = append(sp.GroupBy, strings.Split(arg, ",")...)
		case "agg":
			err = sp.parseAgg(arg)
		}
		if err != nil {
			return nil, err
		}
	}
	return &sp, nil
}

// parseWhere adds the selection attr<op>value, cut at the first operator in
// w (the longest operator token there).
func (sp *Spec) parseWhere(w string) error {
	at, o := -1, textOps[0]
	for _, t := range textOps {
		if i := strings.Index(w, t.tok); i >= 0 && (at < 0 || i < at) {
			at, o = i, t
		}
	}
	if at <= 0 {
		return fmt.Errorf("bad where %q", w)
	}
	attr, val := w[:at], w[at+len(o.tok):]
	str, quoted, err := Unquote(val)
	n, nerr := strconv.ParseInt(val, 10, 64)
	switch {
	case err != nil:
		return err
	case !quoted && len(val) > 1 && val[0] == '$':
		sp.Sels = append(sp.Sels, SelParam(attr, o.op, val[1:]))
	case !quoted && nerr == nil:
		sp.Sels = append(sp.Sels, SelInt(attr, o.op, n))
	default:
		sp.Sels = append(sp.Sels, SelStr(attr, o.op, str))
	}
	return nil
}

// parseAgg adds an aggregate: count, or fn(A) for an fn of textAggs.
func (sp *Spec) parseAgg(tok string) error {
	if tok == "count" {
		sp.Aggs = append(sp.Aggs, AggSpec{Fn: AggCount})
		return nil
	}
	i := strings.Index(tok, "(")
	if i < 1 || !strings.HasSuffix(tok, ")") {
		return fmt.Errorf("bad aggregate %q (want count, sum(A), min(A), max(A) or distinct(A))", tok)
	}
	fn, ok := textAggs[tok[:i]]
	if !ok {
		return fmt.Errorf("unknown aggregate function %q", tok[:i])
	}
	sp.Aggs = append(sp.Aggs, AggSpec{Fn: fn, Attr: tok[i+1 : len(tok)-1]})
	return nil
}

// parseCount parses the argument of limit or offset. A Spec reads a Limit
// of -1 as "no limit", so a negative count is refused here rather than left
// to Clauses.
func parseCount(word, arg string) (int64, error) {
	n, err := strconv.ParseInt(arg, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", word, arg)
	}
	if n < 0 {
		return 0, fmt.Errorf("%s needs n >= 0, got %d", word, n)
	}
	return n, nil
}
