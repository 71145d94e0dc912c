package fdb_test

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	fdb "repro"
)

// orderDB is the two-relation join used throughout the ordering tests.
func orderDB(t *testing.T) *fdb.DB {
	t.Helper()
	db := fdb.New()
	db.MustCreate("R", "a", "b")
	db.MustCreate("S", "b", "c")
	for _, r := range [][2]int{{3, 1}, {1, 2}, {2, 1}, {1, 1}} {
		db.MustInsert("R", r[0], r[1])
	}
	for _, s := range [][2]int{{1, 9}, {1, 8}, {2, 7}} {
		db.MustInsert("S", s[0], s[1])
	}
	return db
}

func rows(t *testing.T, res *fdb.Result) [][]string {
	t.Helper()
	return res.Rows(0)
}

func TestOrderByStreamsOnRootKey(t *testing.T) {
	db := orderDB(t)
	st, err := db.Prepare(fdb.From("R", "S"), fdb.Eq("R.b", "S.b"),
		fdb.OrderBy(fdb.Desc("S.b"), "S.c"))
	if err != nil {
		t.Fatal(err)
	}
	if o := st.Explain().Order; o != fdb.OrderStreams {
		t.Fatalf("join-class key should stream off the optimal tree: order %s", o)
	}
	res, err := st.Exec()
	if err != nil {
		t.Fatal(err)
	}
	got := rows(t, res)
	want := [][]string{
		{"2", "2", "7", "1"},
		{"1", "1", "8", "1"}, {"1", "1", "8", "2"}, {"1", "1", "8", "3"},
		{"1", "1", "9", "1"}, {"1", "1", "9", "2"}, {"1", "1", "9", "3"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ordered rows = %v, want %v", got, want)
	}
}

func TestOrderByHeapFallback(t *testing.T) {
	db := orderDB(t)
	st, err := db.Prepare(fdb.From("R", "S"), fdb.Eq("R.b", "S.b"), fdb.OrderBy("R.a"))
	if err != nil {
		t.Fatal(err)
	}
	if o := st.Explain().Order; o != fdb.OrderDeclined {
		t.Fatalf("a below the join class: streaming would need a costlier tree, expected fallback: order %s", o)
	}
	res, err := st.Exec()
	if err != nil {
		t.Fatal(err)
	}
	got := rows(t, res)
	// Sorted by R.a, ties by the remaining columns ascending.
	prev := ""
	for _, r := range got {
		key := r[len(r)-2] // R.a column position depends on the tree; find it via schema
		_ = key
		_ = prev
	}
	sch := res.Schema()
	ai := -1
	for i, a := range sch {
		if a == "R.a" {
			ai = i
		}
	}
	if ai < 0 {
		t.Fatalf("R.a not in schema %v", sch)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1][ai] > got[i][ai] {
			t.Fatalf("rows not sorted by R.a: %v", got)
		}
	}
	if len(got) != 7 {
		t.Fatalf("got %d rows, want 7", len(got))
	}
}

func TestLimitOffsetCountAndRows(t *testing.T) {
	db := orderDB(t)
	res, err := db.Query(fdb.From("R", "S"), fdb.Eq("R.b", "S.b"),
		fdb.OrderBy(fdb.Desc("S.c")), fdb.Offset(1), fdb.Limit(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 3 {
		t.Fatalf("Count() = %d, want 3", res.Count())
	}
	if res.FlatSize() != 3*4 {
		t.Fatalf("FlatSize() = %d, want 12", res.FlatSize())
	}
	got := rows(t, res)
	if len(got) != 3 {
		t.Fatalf("got %d rows, want 3", len(got))
	}
	// Limit past the end clips; Limit(0) empties.
	res, err = db.Query(fdb.From("R", "S"), fdb.Eq("R.b", "S.b"), fdb.Limit(100))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 7 || len(rows(t, res)) != 7 {
		t.Fatalf("Limit(100): count %d", res.Count())
	}
	res, err = db.Query(fdb.From("R", "S"), fdb.Eq("R.b", "S.b"), fdb.Limit(0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Empty() || res.Count() != 0 || len(rows(t, res)) != 0 {
		t.Fatal("Limit(0) must be empty")
	}
	res, err = db.Query(fdb.From("R", "S"), fdb.Eq("R.b", "S.b"), fdb.Offset(100))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Empty() || res.Count() != 0 {
		t.Fatal("Offset past the end must be empty")
	}
}

// Dictionary-encoded attributes order by decoded string, not insertion code:
// the ordered iterator must walk the per-node sort permutation.
func TestOrderByDictDecodedOrder(t *testing.T) {
	db := fdb.New()
	db.MustCreate("P", "name", "qty")
	// Insertion order differs from both alphabetical and reverse order.
	db.MustInsert("P", "melon", 3)
	db.MustInsert("P", "apple", 2)
	db.MustInsert("P", "zucchini", 1)
	db.MustInsert("P", "banana", 5)

	res, err := db.Query(fdb.From("P"), fdb.OrderBy("P.name"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	res.Each(func(row []string) bool {
		names = append(names, row[0])
		return true
	})
	want := []string{"apple", "banana", "melon", "zucchini"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("names = %v, want %v", names, want)
	}
	res, err = db.Query(fdb.From("P"), fdb.OrderBy(fdb.Desc("P.name")), fdb.Limit(2))
	if err != nil {
		t.Fatal(err)
	}
	names = nil
	res.Each(func(row []string) bool {
		names = append(names, row[0])
		return true
	})
	if !reflect.DeepEqual(names, []string{"zucchini", "melon"}) {
		t.Fatalf("desc names = %v", names)
	}
}

func TestDistinctWithProjection(t *testing.T) {
	db := orderDB(t)
	res, err := db.Query(fdb.From("R", "S"), fdb.Eq("R.b", "S.b"),
		fdb.Project("S.b"), fdb.Distinct(), fdb.OrderBy(fdb.Desc("S.b")))
	if err != nil {
		t.Fatal(err)
	}
	got := rows(t, res)
	if !reflect.DeepEqual(got, [][]string{{"2"}, {"1"}}) {
		t.Fatalf("distinct projected rows = %v", got)
	}
	// Distinct is idempotent with the engine's set semantics: the same query
	// without it returns the same rows.
	res2, err := db.Query(fdb.From("R", "S"), fdb.Eq("R.b", "S.b"),
		fdb.Project("S.b"), fdb.OrderBy(fdb.Desc("S.b")))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows(t, res2), got) {
		t.Fatal("projection is not set-semantic without Distinct")
	}
}

func TestOrderClauseErrors(t *testing.T) {
	db := orderDB(t)
	for name, clauses := range map[string][]fdb.Clause{
		"negative limit":     {fdb.From("R"), fdb.Limit(-1)},
		"negative offset":    {fdb.From("R"), fdb.Offset(-2)},
		"double limit":       {fdb.From("R"), fdb.Limit(1), fdb.Limit(2)},
		"double distinct":    {fdb.From("R"), fdb.Distinct(), fdb.Distinct()},
		"empty orderby":      {fdb.From("R"), fdb.OrderBy()},
		"bad key type":       {fdb.From("R"), fdb.OrderBy(42)},
		"unknown order attr": {fdb.From("R"), fdb.OrderBy("R.z")},
		"projected-away key": {fdb.From("R"), fdb.Project("R.a"), fdb.OrderBy("R.b")},
		"order with agg":     {fdb.From("R"), fdb.Agg(fdb.Count, ""), fdb.OrderBy("R.a")},
		"limit with agg":     {fdb.From("R"), fdb.Agg(fdb.Count, ""), fdb.Limit(1)},
	} {
		if _, err := db.Query(clauses...); err == nil {
			if _, err := db.QueryAgg(clauses...); err == nil {
				t.Errorf("%s: no error", name)
			}
		}
	}
	res, err := db.Query(fdb.From("R"), fdb.OrderBy("R.a"), fdb.Limit(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Where(fdb.Cmp("R.a", fdb.EQ, 1)); err == nil || !strings.Contains(err.Error(), "ordered") {
		t.Fatalf("Where on ordered result: %v", err)
	}
	if _, err := res.Where(fdb.Project("R.a")); err == nil {
		t.Fatal("projecting an ordered result must fail")
	}
	plain, err := db.Query(fdb.From("S"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Join(res); err == nil {
		t.Fatal("Join with ordered result must fail")
	}
	if _, err := plain.Where(fdb.Project("S.c"), fdb.OrderBy("S.b")); err == nil {
		t.Fatal("OrderBy on a key Where projected away must fail")
	}
}

// Plan-cache identity: order/limit/offset/distinct are part of the
// fingerprint, so variants never alias each other's cached plans.
func TestOrderPlanCacheIdentity(t *testing.T) {
	db := orderDB(t)
	q := func(extra ...fdb.Clause) int64 {
		clauses := append([]fdb.Clause{fdb.From("R", "S"), fdb.Eq("R.b", "S.b")}, extra...)
		res, err := db.Query(clauses...)
		if err != nil {
			t.Fatal(err)
		}
		return res.Count()
	}
	if n := q(); n != 7 {
		t.Fatalf("base count %d", n)
	}
	if n := q(fdb.Limit(2)); n != 2 {
		t.Fatalf("limit-2 count %d (cached plan aliased?)", n)
	}
	if n := q(fdb.Limit(5)); n != 5 {
		t.Fatalf("limit-5 count %d (cached plan aliased?)", n)
	}
	if n := q(fdb.OrderBy("S.c"), fdb.Offset(6)); n != 1 {
		t.Fatalf("offset count %d", n)
	}
	if n := q(fdb.Distinct()); n != 7 {
		t.Fatalf("distinct count %d", n)
	}
	// Repeats hit the cache and still honour their own clipping.
	before := db.CacheStats()
	if n := q(fdb.Limit(2)); n != 2 {
		t.Fatal("cached limit-2 plan broken")
	}
	after := db.CacheStats()
	if after.Hits != before.Hits+1 {
		t.Fatalf("expected a cache hit, stats %+v -> %+v", before, after)
	}
}

// Ordered prepared statements are safe for concurrent Exec+retrieval.
func TestOrderedExecConcurrent(t *testing.T) {
	db := orderDB(t)
	st, err := db.Prepare(fdb.From("R", "S"), fdb.Eq("R.b", "S.b"),
		fdb.OrderBy(fdb.Desc("S.b"), "S.c"), fdb.Limit(4))
	if err != nil {
		t.Fatal(err)
	}
	var want [][]string
	{
		res, err := st.Exec()
		if err != nil {
			t.Fatal(err)
		}
		want = res.Rows(0)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := st.Exec()
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(res.Rows(0), want) {
				errs <- errDiverged
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errDiverged = &divergedError{}

type divergedError struct{}

func (*divergedError) Error() string { return "concurrent ordered Exec diverged" }
