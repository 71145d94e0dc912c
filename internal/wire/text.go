package wire

import (
	"fmt"
	"strconv"
	"strings"
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

// textOps lists the comparison tokens longest first, so "<=" is not read
// as "<" followed by a value starting with "=".
var textOps = []struct {
	tok string
	op  byte
}{{"!=", OpNE}, {"<=", OpLE}, {">=", OpGE}, {"<", OpLT}, {">", OpGT}, {"=", OpEQ}}

var textAggs = map[string]byte{
	"sum": AggSum, "min": AggMin, "max": AggMax, "distinct": AggCountDistinct, "count_distinct": AggCountDistinct,
}

// ParseSpec parses the text form of a query, already split into words:
//
//	from R1,R2 [eq A=B ...] [where ATTR(=|!=|<|<=|>|>=)VAL ...] [project A,B]
//	[orderby A,-B] [limit N] [offset N] [distinct]
//	[groupby A,B] [agg count|sum(A)|min(A)|max(A)|distinct(A) ...]
//
// Words may come in any order and every list word may repeat; limit,
// offset, orderby and distinct may not. A where value $name is a parameter
// bound at Exec, an integer is an integer constant, anything else a string
// constant. An orderby key with a leading '-' sorts descending.
// count_distinct(A) is accepted for distinct(A).
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

// parseWhere adds the selection attr<op>value.
func (sp *Spec) parseWhere(w string) error {
	for _, o := range textOps {
		i := strings.Index(w, o.tok)
		if i <= 0 {
			continue
		}
		attr, val := w[:i], w[i+len(o.tok):]
		if name, ok := strings.CutPrefix(val, "$"); ok && name != "" {
			sp.Sels = append(sp.Sels, SelParam(attr, o.op, name))
		} else if n, err := strconv.ParseInt(val, 10, 64); err == nil {
			sp.Sels = append(sp.Sels, SelInt(attr, o.op, n))
		} else {
			sp.Sels = append(sp.Sels, SelStr(attr, o.op, val))
		}
		return nil
	}
	return fmt.Errorf("bad where %q", w)
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
