package fdb

import (
	"strings"
	"testing"

	"repro/internal/frep"
	"repro/internal/relation"
)

// q1Clauses is the SPJ part of the paper's Q1 join over the grocery data.
func q1Clauses() []Clause {
	return []Clause{
		From("Orders", "Store", "Disp"),
		Eq("Orders.item", "Store.item"),
		Eq("Store.location", "Disp.location"),
	}
}

// foldOver computes the same aggregates by enumerating the flat result of
// the SPJ query — the reference the factorised pass must match.
func foldOver(t *testing.T, res *Result, groupBy []string, specs []frep.AggSpec) map[string][]int64 {
	t.Helper()
	rep := res.Enc()
	schema := rep.Schema()
	pos := map[relation.Attribute]int{}
	for i, a := range schema {
		pos[a] = i
	}
	type state struct {
		cnt  int64
		sum  []int64
		m    []int64
		mSet []bool
		dist []map[relation.Value]struct{}
	}
	groups := map[string]*state{}
	rep.Enumerate(func(tp relation.Tuple) bool {
		var kb strings.Builder
		for _, a := range groupBy {
			kb.WriteString(res.db.dict.Decode(tp[pos[relation.Attribute(a)]]))
			kb.WriteByte('\x00')
		}
		k := kb.String()
		s, ok := groups[k]
		if !ok {
			s = &state{sum: make([]int64, len(specs)), m: make([]int64, len(specs)),
				mSet: make([]bool, len(specs)), dist: make([]map[relation.Value]struct{}, len(specs))}
			groups[k] = s
		}
		s.cnt++
		for i, sp := range specs {
			if sp.Fn == frep.AggCount {
				continue
			}
			v := tp[pos[sp.Attr]]
			switch sp.Fn {
			case frep.AggSum:
				s.sum[i] += int64(v)
			case frep.AggMin:
				if !s.mSet[i] || int64(v) < s.m[i] {
					s.m[i], s.mSet[i] = int64(v), true
				}
			case frep.AggMax:
				if !s.mSet[i] || int64(v) > s.m[i] {
					s.m[i], s.mSet[i] = int64(v), true
				}
			case frep.AggCountDistinct:
				if s.dist[i] == nil {
					s.dist[i] = map[relation.Value]struct{}{}
				}
				s.dist[i][v] = struct{}{}
			}
		}
		return true
	})
	out := map[string][]int64{}
	for k, s := range groups {
		vals := make([]int64, len(specs))
		for i, sp := range specs {
			switch sp.Fn {
			case frep.AggCount:
				vals[i] = s.cnt
			case frep.AggSum:
				vals[i] = s.sum[i]
			case frep.AggMin, frep.AggMax:
				vals[i] = s.m[i]
			case frep.AggCountDistinct:
				vals[i] = int64(len(s.dist[i]))
			}
		}
		out[k] = vals
	}
	return out
}

func TestQueryAggMatchesEnumerateFold(t *testing.T) {
	db := grocery(t)
	specs := []frep.AggSpec{
		{Fn: frep.AggCount},
		{Fn: frep.AggSum, Attr: "Orders.oid"},
		{Fn: frep.AggMin, Attr: "Orders.oid"},
		{Fn: frep.AggMax, Attr: "Orders.oid"},
		{Fn: frep.AggCountDistinct, Attr: "Orders.item"},
	}
	groupings := [][]string{nil, {"Store.location"}, {"Store.location", "Orders.item"}, {"Disp.dispatcher"}}
	for _, groupBy := range groupings {
		clauses := append(q1Clauses(),
			GroupBy(groupBy...),
			Agg(Count, ""),
			Agg(Sum, "Orders.oid"),
			Agg(Min, "Orders.oid"),
			Agg(Max, "Orders.oid"),
			Agg(CountDistinct, "Orders.item"))
		ar, err := db.QueryAgg(clauses...)
		if err != nil {
			t.Fatalf("groupBy %v: %v", groupBy, err)
		}
		res, err := db.Query(q1Clauses()...)
		if err != nil {
			t.Fatal(err)
		}
		want := foldOver(t, res, groupBy, specs)
		if ar.Len() != len(want) {
			t.Fatalf("groupBy %v: %d groups, want %d\n%s", groupBy, ar.Len(), len(want), ar.Table(0))
		}
		for i := 0; i < ar.Len(); i++ {
			var kb strings.Builder
			for _, k := range ar.Key(i) {
				kb.WriteString(k)
				kb.WriteByte('\x00')
			}
			vals, ok := want[kb.String()]
			if !ok {
				t.Fatalf("groupBy %v: unexpected group %v", groupBy, ar.Key(i))
			}
			for j := range vals {
				if ar.Value(i, j) != vals[j] {
					t.Fatalf("groupBy %v group %v agg %d: got %d, want %d",
						groupBy, ar.Key(i), j, ar.Value(i, j), vals[j])
				}
			}
		}
	}
}

func TestPreparedAggWithParam(t *testing.T) {
	db := grocery(t)
	st, err := db.Prepare(append(q1Clauses(),
		Cmp("Orders.oid", NE, Param("skip")),
		GroupBy("Store.location"),
		Agg(Count, ""),
		Agg(CountDistinct, "Orders.item"))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(Arg("skip", "02")); err == nil {
		t.Fatal("Exec on aggregate statement: want error")
	}
	ar, err := st.ExecAgg(Arg("skip", "02"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(append(q1Clauses(), Cmp("Orders.oid", NE, "02"))...)
	if err != nil {
		t.Fatal(err)
	}
	want := foldOver(t, res, []string{"Store.location"}, []frep.AggSpec{
		{Fn: frep.AggCount}, {Fn: frep.AggCountDistinct, Attr: "Orders.item"}})
	if ar.Len() != len(want) {
		t.Fatalf("got %d groups, want %d", ar.Len(), len(want))
	}
	for i := 0; i < ar.Len(); i++ {
		vals := want[ar.Key(i)[0]+"\x00"]
		if vals == nil || ar.Value(i, 0) != vals[0] || ar.Value(i, 1) != vals[1] {
			t.Fatalf("group %v: got (%d,%d), want %v", ar.Key(i), ar.Value(i, 0), ar.Value(i, 1), vals)
		}
	}
	// Rebinding the parameter reuses the compiled plan with new constants.
	ar2, err := st.ExecAgg(Arg("skip", "01"))
	if err != nil {
		t.Fatal(err)
	}
	if ar2.Len() == 0 || ar2.Len() == ar.Len() {
		// The two bindings filter different oid sets; at minimum the counts
		// must differ somewhere.
		same := ar2.Len() == ar.Len()
		if same {
			for i := 0; same && i < ar.Len(); i++ {
				if ar.Value(i, 0) != ar2.Value(i, 0) {
					same = false
				}
			}
		}
		if same {
			t.Fatal("different parameter bindings produced identical aggregates")
		}
	}
}

func TestAggResultAccessors(t *testing.T) {
	db := grocery(t)
	ar, err := db.QueryAgg(append(q1Clauses(),
		GroupBy("Store.location"), Agg(Count, ""), Agg(CountDistinct, "Orders.item"))...)
	if err != nil {
		t.Fatal(err)
	}
	wantSchema := []string{"Store.location", "count", "count_distinct(Orders.item)"}
	if got := ar.Schema(); !equalStrings(got, wantSchema) {
		t.Fatalf("Schema: got %v, want %v", got, wantSchema)
	}
	if i := ar.Group("Istanbul"); i < 0 {
		t.Fatal("Group(Istanbul): not found")
	} else {
		if _, err := ar.Int(i, "count"); err != nil {
			t.Fatal(err)
		}
		if _, err := ar.Int(i, "nope"); err == nil {
			t.Fatal("Int with unknown label: want error")
		}
	}
	if ar.Group("Narnia") != -1 {
		t.Fatal("Group(Narnia): want -1")
	}
	rows := ar.Rows(0)
	if len(rows) != ar.Len() {
		t.Fatalf("Rows: got %d, want %d", len(rows), ar.Len())
	}
	// Keys come back sorted by encoded value; Rows(1) truncates.
	if len(ar.Rows(1)) != 1 {
		t.Fatal("Rows(1): want one row")
	}
	if !strings.Contains(ar.Table(0), "count_distinct") {
		t.Fatalf("Table missing header:\n%s", ar.Table(0))
	}
}

func TestAggErrors(t *testing.T) {
	db := grocery(t)
	cases := []struct {
		name    string
		clauses []Clause
	}{
		{"groupby without agg", append(q1Clauses(), GroupBy("Store.location"))},
		{"project with agg", append(q1Clauses(), Project("Orders.oid"), Agg(Count, ""))},
		{"unknown group attr", append(q1Clauses(), GroupBy("Nope.x"), Agg(Count, ""))},
		{"unknown agg attr", append(q1Clauses(), Agg(Sum, "Nope.x"))},
		{"agg needs attr", append(q1Clauses(), Agg(Sum, ""))},
		{"count takes no attr", append(q1Clauses(), Agg(Count, "Orders.oid"))},
	}
	for _, c := range cases {
		if _, err := db.QueryAgg(c.clauses...); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
	// Duplicate GroupBy attributes must fail at Prepare, not first ExecAgg.
	if _, err := db.Prepare(append(q1Clauses(),
		GroupBy("Store.location", "Store.location"), Agg(Count, ""))...); err == nil {
		t.Error("duplicate group-by attribute: want Prepare error")
	}
	// GroupBy without Agg must error even when the plain query's plan is
	// already cached (the fingerprint of an agg-free spec ignores groupBy).
	if _, err := db.Query(q1Clauses()...); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(append(q1Clauses(), GroupBy("Store.location"))...); err == nil {
		t.Error("GroupBy without Agg on warm cache: want error")
	}
	if _, err := db.QueryAgg(q1Clauses()...); err == nil {
		t.Error("QueryAgg without Agg: want error")
	}
	if _, err := db.Query(append(q1Clauses(), Agg(Count, ""))...); err == nil {
		t.Error("Query with Agg: want error")
	}
	res, err := db.Query(q1Clauses()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Where(Agg(Count, "")); err == nil {
		t.Error("Agg in Where: want error")
	}
	if _, err := res.Where(GroupBy("Store.location")); err == nil {
		t.Error("GroupBy in Where: want error")
	}
	st, err := db.Prepare(q1Clauses()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ExecAgg(); err == nil {
		t.Error("ExecAgg on plain statement: want error")
	}
}

func TestQueryAggPlanCache(t *testing.T) {
	db := grocery(t)
	clauses := append(q1Clauses(), GroupBy("Store.location"), Agg(Count, ""))
	if _, err := db.QueryAgg(clauses...); err != nil {
		t.Fatal(err)
	}
	// The plain SPJ query must not collide with the aggregate plan.
	if _, err := db.Query(q1Clauses()...); err != nil {
		t.Fatal(err)
	}
	s0 := db.CacheStats()
	ar, err := db.QueryAgg(clauses...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(q1Clauses()...)
	if err != nil {
		t.Fatal(err)
	}
	s1 := db.CacheStats()
	if s1.Hits != s0.Hits+2 {
		t.Fatalf("want 2 cache hits, got %d -> %d", s0.Hits, s1.Hits)
	}
	// And the aggregate totals must agree with the enumerated result.
	if got, _ := ar.Int(0, "count"); ar.Len() == 0 || got <= 0 {
		t.Fatalf("cached aggregate result looks wrong:\n%s", ar.Table(0))
	}
	var total int64
	for i := 0; i < ar.Len(); i++ {
		v, _ := ar.Int(i, "count")
		total += v
	}
	if total != res.Count() {
		t.Fatalf("grouped counts sum to %d, result has %d tuples", total, res.Count())
	}
	// An insert keeps the cached aggregate plan: its next execution folds
	// the insert in from the delta chain.
	db.MustInsert("Orders", "09", "Milk")
	s2 := db.CacheStats()
	ar2, err := db.QueryAgg(clauses...)
	if err != nil {
		t.Fatal(err)
	}
	if s3 := db.CacheStats(); s3.Hits != s2.Hits+1 {
		t.Fatalf("aggregate after an insert missed the plan cache: hits %d -> %d", s2.Hits, s3.Hits)
	}
	var total2 int64
	for i := 0; i < ar2.Len(); i++ {
		v, _ := ar2.Int(i, "count")
		total2 += v
	}
	if total2 <= total {
		t.Fatalf("insert not visible to aggregate query: %d -> %d", total, total2)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
