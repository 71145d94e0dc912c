package wire

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseSpec pins the text grammar's reading of each word: a where
// condition is cut at its first operator, and a quoted value is a string
// whatever it holds, spaces included.
func TestParseSpec(t *testing.T) {
	words, err := SplitLine("from R,S eq R.a=S.a where R.b<=$n where S.c!=x where R.b>3 " +
		`where S.c=a<b where S.c<"=x" where R.b="42" where R.b>="$n" where S.c="Ice Cream\t\"2\"" ` +
		" project R.a,S.c orderby S.c,-R.a offset 2 limit 0 distinct groupby R.a agg count agg sum(R.b) agg count_distinct(S.c)")
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSpec(words)
	if err != nil {
		t.Fatal(err)
	}
	want := &Spec{
		From: []string{"R", "S"},
		Eqs:  [][2]string{{"R.a", "S.a"}},
		Sels: []Sel{SelParam("R.b", OpLE, "n"), SelStr("S.c", OpNE, "x"), SelInt("R.b", OpGT, 3),
			SelStr("S.c", OpEQ, "a<b"), SelStr("S.c", OpLT, "=x"), SelStr("R.b", OpEQ, "42"), SelStr("R.b", OpGE, "$n"),
			SelStr("S.c", OpEQ, "Ice Cream\t\"2\"")},
		Project:  []string{"R.a", "S.c"},
		GroupBy:  []string{"R.a"},
		Aggs:     []AggSpec{{Fn: AggCount}, {Fn: AggSum, Attr: "R.b"}, {Fn: AggCountDistinct, Attr: "S.c"}},
		OrderBy:  []OrderKey{{Attr: "S.c"}, {Attr: "R.a", Desc: true}},
		Limit:    0,
		Offset:   2,
		Distinct: true,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseSpec:\ngot  %+v\nwant %+v", got, want)
	}
	if sp, err := ParseSpec([]string{"from", "R"}); err != nil || sp.Limit != -1 {
		t.Fatalf("no limit word: limit %d, err %v; want -1 (none)", sp.Limit, err)
	}
}

// TestParseSpecRefuses: repeated retrieval words, negative counts (limit -1
// would read as "no limit"), unknown words and missing or malformed
// arguments are refused.
func TestParseSpecRefuses(t *testing.T) {
	for _, line := range []string{
		"from R limit 1 limit 2",
		"from R offset 0 offset 0",
		"from R orderby R.a orderby R.b",
		"from R distinct distinct",
		"from R limit -1",
		"from R offset -3",
		"from R limit x",
		"from R select R.a",
		"from R where",
		"from",
		"from R eq R.a",
		"from R where R.a",
		"from R agg median(R.a)",
		"from R agg sum",
		"from R where =x",
		`from R where R.a="x"y`,
		`from R where R.a="\q"`,
	} {
		if sp, err := ParseSpec(strings.Fields(line)); err == nil {
			t.Errorf("%q accepted: %+v", line, sp)
		}
	}
}

// TestSplitLine: words split at whitespace outside double quotes only, a
// quoted stretch keeps its quotes and escapes, and an open quote fails.
func TestSplitLine(t *testing.T) {
	for line, want := range map[string][]string{
		"":                           nil,
		"  load\tx.tsv  ":            {"load", "x.tsv"},
		`load "/tmp/my file.tsv"`:    {"load", `"/tmp/my file.tsv"`},
		`where R.a="b \" c" limit 1`: {"where", `R.a="b \" c"`, "limit", "1"},
		`a"b c"d e`:                  {`a"b c"d`, "e"},
	} {
		if got, err := SplitLine(line); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("SplitLine(%q) = %q, %v; want %q", line, got, err, want)
		}
	}
	for _, line := range []string{`load "x`, `where R.a="b \"`, `"`} {
		if got, err := SplitLine(line); err == nil {
			t.Errorf("SplitLine(%q) = %q, want an error", line, got)
		}
	}
}
