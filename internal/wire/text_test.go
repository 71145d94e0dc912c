package wire

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseSpec pins the text grammar's reading of each word.
func TestParseSpec(t *testing.T) {
	got, err := ParseSpec(strings.Fields("from R,S eq R.a=S.a where R.b<=$n where S.c!=x where R.b>3 " +
		"project R.a,S.c orderby S.c,-R.a offset 2 limit 0 distinct groupby R.a agg count agg sum(R.b) agg count_distinct(S.c)"))
	if err != nil {
		t.Fatal(err)
	}
	want := &Spec{
		From:     []string{"R", "S"},
		Eqs:      [][2]string{{"R.a", "S.a"}},
		Sels:     []Sel{SelParam("R.b", OpLE, "n"), SelStr("S.c", OpNE, "x"), SelInt("R.b", OpGT, 3)},
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
	} {
		if sp, err := ParseSpec(strings.Fields(line)); err == nil {
			t.Errorf("%q accepted: %+v", line, sp)
		}
	}
}
