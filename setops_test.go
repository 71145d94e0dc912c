package fdb

import (
	"fmt"
	"strings"
	"testing"
)

// setAlgebraDB: one relation of oid/item pairs so legs can overlap on a
// range selection.
func setAlgebraDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	db.MustCreate("R", "oid", "grp")
	for i := 1; i <= 10; i++ {
		db.MustInsert("R", i, i%3)
	}
	return db
}

func TestResultSetOps(t *testing.T) {
	db := setAlgebraDB(t)
	legA, err := db.Query(From("R"), Cmp("R.oid", LE, 7)) // oid 1..7
	if err != nil {
		t.Fatal(err)
	}
	legB, err := db.Query(From("R"), Cmp("R.oid", GE, 5)) // oid 5..10
	if err != nil {
		t.Fatal(err)
	}

	union, err := legA.Union(legB)
	if err != nil {
		t.Fatal(err)
	}
	if union.Count() != 10 {
		t.Errorf("union count = %d, want 10", union.Count())
	}
	inter, err := legA.Intersect(legB)
	if err != nil {
		t.Fatal(err)
	}
	if inter.Count() != 3 { // oid 5,6,7
		t.Errorf("intersect count = %d, want 3", inter.Count())
	}
	except, err := legA.Except(legB)
	if err != nil {
		t.Fatal(err)
	}
	if except.Count() != 4 { // oid 1..4
		t.Errorf("except count = %d, want 4", except.Count())
	}
	all, err := legA.UnionAll(legB)
	if err != nil {
		t.Fatal(err)
	}
	if all.Count() != 13 { // 7 + 6, overlap duplicated
		t.Errorf("union all count = %d, want 13", all.Count())
	}
	// Set operations compose: (A ⊎ B) − (A ∩ B) as sets = A ∪ B.
	dedup, err := all.Union(inter)
	if err != nil {
		t.Fatal(err)
	}
	if dedup.Count() != 10 {
		t.Errorf("(A ⊎ B) ∪ (A ∩ B) count = %d, want 10", dedup.Count())
	}
}

func TestResultSetOpGuards(t *testing.T) {
	db := setAlgebraDB(t)
	plain, err := db.Query(From("R"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Union(nil); err == nil || !strings.Contains(err.Error(), "nil result") {
		t.Errorf("Union(nil) error = %v", err)
	}
	other := setAlgebraDB(t)
	ores, err := other.Query(From("R"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Except(ores); err == nil || !strings.Contains(err.Error(), "different DB") {
		t.Errorf("cross-DB Except error = %v", err)
	}
	ordered, err := db.Query(From("R"), OrderBy("R.oid"), Limit(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Intersect(ordered); err == nil || !strings.Contains(err.Error(), "ordered") {
		t.Errorf("ordered-operand Intersect error = %v", err)
	}
	// Operands over different attributes surface from the native merge.
	db.MustCreate("S", "x")
	db.MustInsert("S", 1)
	s, err := db.Query(From("S"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Union(s); err == nil {
		t.Error("schema-mismatched union succeeded")
	}
}

// setLegs queries the two overlapping legs of setAlgebraDB: oid 1..7 and
// oid 5..10.
func setLegs(t *testing.T, db *DB) (a, b *Result) {
	t.Helper()
	a, err := db.Query(From("R"), Cmp("R.oid", LE, 7))
	if err != nil {
		t.Fatal(err)
	}
	if b, err = db.Query(From("R"), Cmp("R.oid", GE, 5)); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestSetOpsThenWhere: a set operation's result is finished like any other
// result, by Where — ordered and clipped, or normalised by Distinct — and
// set operations nest.
func TestSetOpsThenWhere(t *testing.T) {
	db := setAlgebraDB(t)
	a, b := setLegs(t, db)
	must := func(r *Result, err error) *Result {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	res := must(must(a.Union(b)).Where(OrderBy(Desc("R.oid")), Limit(3)))
	rows := res.Rows(0)
	if len(rows) != 3 || rows[0][0] != "10" || rows[1][0] != "9" || rows[2][0] != "8" {
		t.Errorf("union top-3 by oid desc = %v", rows)
	}

	// Nested expression: (A − B) ∪ (A ∩ B) = A.
	res = must(must(a.Except(b)).Union(must(a.Intersect(b))))
	if res.Count() != 7 {
		t.Errorf("(A − B) ∪ (A ∩ B) count = %d, want 7", res.Count())
	}

	// UNION ALL + Distinct restores set semantics.
	res = must(must(a.UnionAll(b)).Where(Distinct()))
	if res.Count() != 10 {
		t.Errorf("union all + distinct count = %d, want 10", res.Count())
	}
}

// TestSetOpsThenWhereErrors: the Where that finishes a set operation checks
// its clauses like any Where, and a finished result takes no further
// algebra.
func TestSetOpsThenWhereErrors(t *testing.T) {
	db := setAlgebraDB(t)
	a, b := setLegs(t, db)
	u, err := a.Union(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Where(From("R")); err == nil || !strings.Contains(err.Error(), "not allowed in Where") {
		t.Errorf("From in the finishing Where: error = %v", err)
	}
	// Order-by attribute must exist in the combined result, after projection.
	if _, err := u.Where(OrderBy("R.nope")); err == nil || !strings.Contains(err.Error(), "not in the result") {
		t.Errorf("order by unknown attribute: error = %v", err)
	}
	if _, err := u.Where(Project("R.grp"), OrderBy("R.oid")); err == nil || !strings.Contains(err.Error(), "not in the result") {
		t.Errorf("order by projected-away attribute: error = %v", err)
	}
	clipped, err := u.Where(Limit(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clipped.Union(b); err == nil || !strings.Contains(err.Error(), "last Where") {
		t.Errorf("set operation over a clipped result: error = %v", err)
	}
}

// TestClippingEdges pins the Offset/Limit edge cases on ordered, unordered
// and set-operation results: Limit(0), Offset past the end, iterator Reset
// replay, and the Count/Empty/FlatSize accessors agreeing with what Iter
// actually yields.
func TestClippingEdges(t *testing.T) {
	db := setAlgebraDB(t)

	results := map[string]*Result{}
	var err error
	if results["ordered limit0"], err = db.Query(From("R"), OrderBy("R.oid"), Limit(0)); err != nil {
		t.Fatal(err)
	}
	if results["offset past end"], err = db.Query(From("R"), Offset(99)); err != nil {
		t.Fatal(err)
	}
	if results["ordered clip"], err = db.Query(From("R"), OrderBy(Desc("R.grp"), Asc("R.oid")), Offset(2), Limit(4)); err != nil {
		t.Fatal(err)
	}
	a, b := setLegs(t, db)
	all, err := a.UnionAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if results["setop clip"], err = all.Where(OrderBy("R.oid"), Offset(3), Limit(6)); err != nil {
		t.Fatal(err)
	}
	inter, err := a.Intersect(b)
	if err != nil {
		t.Fatal(err)
	}
	if results["setop offset past end"], err = inter.Where(Offset(50)); err != nil {
		t.Fatal(err)
	}

	wantCount := map[string]int64{
		"ordered limit0":        0,
		"offset past end":       0,
		"ordered clip":          4,
		"setop clip":            6,
		"setop offset past end": 0,
	}
	for name, res := range results {
		it := res.Iter()
		var first []string
		n := int64(0)
		for {
			tup, ok := it.Next()
			if !ok {
				break
			}
			if n == 0 {
				first = append(first, fmt.Sprint(tup))
			}
			n++
		}
		if n != wantCount[name] {
			t.Errorf("%s: iterated %d tuples, want %d", name, n, wantCount[name])
		}
		if res.Count() != n {
			t.Errorf("%s: Count() = %d, iterated %d", name, res.Count(), n)
		}
		if res.Empty() != (n == 0) {
			t.Errorf("%s: Empty() = %v with %d tuples", name, res.Empty(), n)
		}
		if want := n * int64(len(res.Schema())); res.FlatSize() != want {
			t.Errorf("%s: FlatSize() = %d, want %d", name, res.FlatSize(), want)
		}
		// Reset must replay the identical clipped sequence.
		it.Reset()
		m := int64(0)
		for {
			tup, ok := it.Next()
			if !ok {
				break
			}
			if m == 0 && len(first) > 0 && fmt.Sprint(tup) != first[0] {
				t.Errorf("%s: replay starts at %s, first pass started at %s", name, fmt.Sprint(tup), first[0])
			}
			m++
		}
		if m != n {
			t.Errorf("%s: replay yielded %d tuples, first pass %d", name, m, n)
		}
	}

	// The set-op clip window holds the right tuples: union-all of the two
	// legs sorted by oid is 1,2,3,4,5,5,6,6,7,7,8,9,10 — offset 3 limit 6
	// lands on 4,5,5,6,6,7.
	rows := results["setop clip"].Rows(0)
	var oids []string
	for _, r := range rows {
		oids = append(oids, r[0])
	}
	if got := strings.Join(oids, " "); got != "4 5 5 6 6 7" {
		t.Errorf("setop clip window = %q, want \"4 5 5 6 6 7\"", got)
	}
}
