package fdb

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/csvio"
	"repro/internal/relation"
)

func prepQ1Item(t *testing.T, db *DB) *Stmt {
	t.Helper()
	stmt, err := db.Prepare(
		From("Orders", "Store", "Disp"),
		Eq("Orders.item", "Store.item"),
		Eq("Store.location", "Disp.location"),
		Cmp("Orders.item", EQ, Param("item")))
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

func TestPrepareExecMatchesQuery(t *testing.T) {
	db := grocery(t)
	stmt := prepQ1Item(t, db)
	if got := stmt.Params(); len(got) != 1 || got[0] != "item" {
		t.Fatalf("Params() = %v", got)
	}
	for _, item := range []string{"Milk", "Cheese", "Melon", "Bread"} {
		res, err := stmt.Exec(Arg("item", item))
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.Query(
			From("Orders", "Store", "Disp"),
			Eq("Orders.item", "Store.item"),
			Eq("Store.location", "Disp.location"),
			Cmp("Orders.item", EQ, item))
		if err != nil {
			t.Fatal(err)
		}
		if res.Count() != want.Count() {
			t.Fatalf("item %s: Exec count %d != Query count %d", item, res.Count(), want.Count())
		}
	}
}

func TestPreparedProjectionAndNoParams(t *testing.T) {
	db := grocery(t)
	stmt, err := db.Prepare(
		From("Orders", "Store", "Disp"),
		Eq("Orders.item", "Store.item"),
		Eq("Store.location", "Disp.location"),
		Project("Orders.oid", "Disp.dispatcher"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := stmt.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schema()) != 2 {
		t.Fatalf("projected schema = %v", res.Schema())
	}
	// Re-execution of the same statement yields an equal result.
	res2, err := stmt.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != res2.Count() || res.Size() != res2.Size() {
		t.Fatalf("re-exec diverged: (%d,%d) vs (%d,%d)", res.Count(), res.Size(), res2.Count(), res2.Size())
	}
}

func TestExecParamErrors(t *testing.T) {
	db := grocery(t)
	stmt := prepQ1Item(t, db)
	if _, err := stmt.Exec(); err == nil || !strings.Contains(err.Error(), "missing parameter") {
		t.Fatalf("missing param: err = %v", err)
	}
	if _, err := stmt.Exec(Arg("item", "Milk"), Arg("ghost", 1)); err == nil || !strings.Contains(err.Error(), "unknown parameter") {
		t.Fatalf("unknown param: err = %v", err)
	}
	if _, err := stmt.Exec(Arg("item", "Milk"), Arg("item", "Cheese")); err == nil || !strings.Contains(err.Error(), "bound twice") {
		t.Fatalf("duplicate param: err = %v", err)
	}
	if _, err := stmt.Exec(Arg("item", 1.5)); err == nil || !strings.Contains(err.Error(), "unsupported value type") {
		t.Fatalf("bad value type: err = %v", err)
	}
	// Ad-hoc Query is Prepare then Exec with no bindings: a parameter is
	// missing.
	if _, err := db.Query(From("Orders"), Cmp("Orders.item", EQ, Param("item"))); err == nil || !strings.Contains(err.Error(), "missing parameter") {
		t.Fatalf("param in Query: err = %v", err)
	}
	// Param on an attribute of no input relation fails at Prepare.
	if _, err := db.Prepare(From("Orders"), Cmp("Ghost.attr", EQ, Param("x"))); err == nil {
		t.Fatal("param selection on unknown attribute accepted")
	}
	// Empty parameter name fails at compile time.
	if _, err := db.Prepare(From("Orders"), Cmp("Orders.item", EQ, Param(""))); err == nil {
		t.Fatal("empty parameter name accepted")
	}
}

func TestClauseErrors(t *testing.T) {
	db := grocery(t)
	if _, err := db.Query(nil); err == nil || !strings.Contains(err.Error(), "nil clause") {
		t.Fatalf("nil clause: err = %v", err)
	}
	if _, err := db.Prepare(From("Orders"), Eq("", "Orders.item")); err == nil {
		t.Fatal("empty Eq side accepted")
	}
	res, err := db.Query(From("Orders"))
	if err != nil {
		t.Fatal(err)
	}
	// From inside Where is rejected (one honest clause path, no silent no-ops).
	if _, err := res.Where(From("Store")); err == nil || !strings.Contains(err.Error(), "not allowed in Where") {
		t.Fatalf("From in Where: err = %v", err)
	}
	// Where on an attribute absent from the result errors.
	if _, err := res.Where(Eq("Orders.item", "Produce.item")); err == nil || !strings.Contains(err.Error(), "not in result") {
		t.Fatalf("Where on absent attribute: err = %v", err)
	}
	// Constant selection on an absent attribute errors too.
	if _, err := res.Where(Cmp("Ghost.attr", EQ, 1)); err == nil {
		t.Fatal("Cmp on absent attribute accepted in Where")
	}
	// Param placeholders make no sense in Where.
	if _, err := res.Where(Cmp("Orders.item", EQ, Param("x"))); err == nil {
		t.Fatal("Param accepted in Where")
	}
}

func TestJoinAcrossDatabasesRejected(t *testing.T) {
	db1 := grocery(t)
	db2 := grocery(t)
	r1, err := db1.Query(From("Orders"))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := db2.Query(From("Produce"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Join(r2); err == nil || !strings.Contains(err.Error(), "different DB") {
		t.Fatalf("cross-DB join: err = %v", err)
	}
	if _, err := r1.Join(nil); err == nil {
		t.Fatal("nil join accepted")
	}
	// Same-DB joins still work.
	r3, err := db1.Query(From("Produce"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Join(r3); err != nil {
		t.Fatal(err)
	}
}

func TestStmtReadYourWrites(t *testing.T) {
	db := grocery(t)
	stmt := prepQ1Item(t, db)
	before, err := stmt.Exec(Arg("item", "Milk"))
	if err != nil {
		t.Fatal(err)
	}
	// A snapshot pinned before the write keeps the old view; the prepared
	// statement follows the database and sees the insert on its next Exec.
	snap := db.Snapshot()
	defer snap.Close()
	db.MustInsert("Orders", "09", "Milk")
	after, err := stmt.Exec(Arg("item", "Milk"))
	if err != nil {
		t.Fatal(err)
	}
	if after.Count() <= before.Count() {
		t.Fatalf("statement missed the insert: %d <= %d", after.Count(), before.Count())
	}
	pinned, err := pinQuery(snap,
		From("Orders", "Store", "Disp"),
		Eq("Orders.item", "Store.item"),
		Eq("Store.location", "Disp.location"),
		Cmp("Orders.item", EQ, "Milk"))
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Count() != before.Count() {
		t.Fatalf("snapshot leaked the insert: %d != %d", pinned.Count(), before.Count())
	}
	// A freshly prepared statement agrees with the refreshed one.
	fresh, err := prepQ1Item(t, db).Exec(Arg("item", "Milk"))
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Count() != after.Count() {
		t.Fatalf("fresh and refreshed statements disagree: %d != %d", fresh.Count(), after.Count())
	}
}

func TestPlanCacheHitsAndInvalidation(t *testing.T) {
	db := grocery(t)
	q := []Clause{
		From("Orders", "Store", "Disp"),
		Eq("Orders.item", "Store.item"),
		Eq("Store.location", "Disp.location"),
	}
	if _, err := db.Query(q...); err != nil {
		t.Fatal(err)
	}
	s0 := db.CacheStats()
	if s0.Misses == 0 || s0.Entries == 0 {
		t.Fatalf("first query should miss and populate: %+v", s0)
	}
	if _, err := db.Query(q...); err != nil {
		t.Fatal(err)
	}
	s1 := db.CacheStats()
	if s1.Hits != s0.Hits+1 {
		t.Fatalf("identical query did not hit the cache: %+v -> %+v", s0, s1)
	}
	// Syntactic permutation shares the canonical fingerprint.
	if _, err := db.Query(
		From("Disp", "Orders", "Store"),
		Eq("Store.location", "Disp.location"),
		Eq("Store.item", "Orders.item")); err != nil {
		t.Fatal(err)
	}
	s2 := db.CacheStats()
	if s2.Hits != s1.Hits+1 {
		t.Fatalf("permuted query did not hit the cache: %+v -> %+v", s1, s2)
	}
	// Writes do not evict plans: the cached statement refreshes its inputs
	// from the delta chain, so the next lookup hits AND serves fresh data.
	db.MustInsert("Orders", "09", "Milk")
	if s := db.CacheStats(); s.Entries == 0 {
		t.Fatalf("insert blew away cached plans: %+v", s)
	}
	res, err := db.Query(q...)
	if err != nil {
		t.Fatal(err)
	}
	s3 := db.CacheStats()
	if s3.Hits != s2.Hits+1 {
		t.Fatalf("cached plan not served after insert: %+v -> %+v", s2, s3)
	}
	want, err := db.Prepare(q...)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := want.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != wantRes.Count() {
		t.Fatalf("cached query served stale data after insert: %d != %d", res.Count(), wantRes.Count())
	}
	// Schema-level change: a new relation leaves every plan cached. (No plan
	// can read its name: Create rejects duplicates and binding rejects
	// unknown relations.)
	entriesBefore := db.CacheStats().Entries
	db.MustCreate("Unrelated", "x")
	if s := db.CacheStats(); s.Entries != entriesBefore {
		t.Fatalf("creating an unrelated relation disturbed the cache: %+v", s)
	}
}

func TestConcurrentExecAndQuery(t *testing.T) {
	db := grocery(t)
	stmt := prepQ1Item(t, db)
	items := []string{"Milk", "Cheese", "Melon"}
	want := map[string]int64{}
	for _, it := range items {
		res, err := stmt.Exec(Arg("item", it))
		if err != nil {
			t.Fatal(err)
		}
		want[it] = res.Count()
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				it := items[(g+i)%len(items)]
				res, err := stmt.Exec(Arg("item", it))
				if err != nil {
					errs <- err
					return
				}
				if res.Count() != want[it] {
					errs <- errCount{it, res.Count(), want[it]}
					return
				}
				// Mixed-in cached ad-hoc queries and enumeration.
				if g%2 == 0 {
					q, err := db.Query(From("Produce", "Serve"), Eq("Produce.supplier", "Serve.supplier"))
					if err != nil {
						errs <- err
						return
					}
					q.Rows(3)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type errCount struct {
	item      string
	got, want int64
}

func (e errCount) Error() string { return "count mismatch for " + e.item }

func TestConcurrentInsertsAndQueries(t *testing.T) {
	db := New()
	db.MustCreate("R", "a", "b")
	for i := 0; i < 50; i++ {
		db.MustInsert("R", i, i%7)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 50; i < 150; i++ {
			if err := db.Insert("R", i, i%7); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			res, err := db.Query(From("R"), Cmp("R.b", EQ, 3))
			if err != nil {
				errs <- err
				return
			}
			res.Count()
		}
	}()
	// Snapshot readers and TSV export race against the inserter too.
	tsv := t.TempDir() + "/r.tsv"
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			r, ok := db.Relation("R")
			if !ok {
				errs <- errCount{"R", 0, 0}
				return
			}
			n := 0
			for range r.Tuples {
				n++
			}
			if err := csvio.WriteFile(tsv, r, db.Dict().Snapshot(), kindsOf(db.kinds(), r.Schema)); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestExecContextCancellation(t *testing.T) {
	db := New()
	db.MustCreate("A", "x", "p")
	db.MustCreate("B", "y", "q")
	for i := 0; i < 400; i++ {
		db.MustInsert("A", i%20, i)
		db.MustInsert("B", i%20, i)
	}
	stmt, err := db.Prepare(From("A", "B"), Eq("A.x", "B.y"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the first execution's load must abort, not complete
	if _, err := stmt.ExecContext(ctx); err == nil {
		t.Fatal("cancelled ExecContext succeeded")
	} else if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stmt.src.data.Load() != nil {
		t.Fatal("cancelled load published its inputs")
	}
	// A live context still completes, with every row.
	res, err := stmt.ExecContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 20*20*20 {
		t.Fatalf("exec after a cancelled load: %d tuples, want %d", res.Count(), 20*20*20)
	}
}

// TestExecExtremeValues: values at both ends of int64 are ordinary join
// and selection values. An advance past the largest value that computed
// v+1 wrapped to the smallest and never returned, so Exec runs under a
// deadline.
func TestExecExtremeValues(t *testing.T) {
	db := New()
	db.MustCreate("R", "a", "b")
	db.MustCreate("S", "c", "d")
	db.MustInsert("R", 1, 2)
	db.MustInsert("R", int64(math.MaxInt64), 3)
	db.MustInsert("R", int64(math.MinInt64), 4)
	db.MustInsert("S", int64(math.MaxInt64), 5)
	db.MustInsert("S", int64(math.MinInt64), 6)
	db.MustInsert("S", int64(math.MinInt64), 7)
	for _, c := range []struct {
		name    string
		clauses []Clause
		want    int64
	}{
		{"scan", []Clause{From("R")}, 3},
		{"join", []Clause{From("R", "S"), Eq("R.a", "S.c")}, 3},
	} {
		stmt, err := db.Prepare(c.clauses...)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		res, err := stmt.ExecContext(ctx)
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Count() != c.want {
			t.Fatalf("%s: %d rows, want %d", c.name, res.Count(), c.want)
		}
	}
}

// TestLoadRepeatedRows: a bulk load with repeated rows reaches a statement
// as the set it denotes, filtered by a baked constant or not. Both
// statements match the flat oracle over the deduplicated inputs, also once
// a delete of a repeated row is folded into the loaded snapshot (which
// removes one copy of a tuple, so the snapshot must hold only one).
func TestLoadRepeatedRows(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"R": "R\ta\tb\n1\t10\n2\t20\n1\t10\n3\t30\n2\t20\n1\t10\n3\t31\n1\t20\n",
		"S": "S\tb\tc\n10\t100\n10\t100\n20\t200\n30\t300\n31\t310\n20\t201\n20\t200\n",
	}
	db := New()
	for _, name := range []string{"R", "S"} {
		path := filepath.Join(dir, name+".tsv")
		if err := os.WriteFile(path, []byte(files[name]), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := db.LoadTSV(path); err != nil {
			t.Fatal(err)
		}
	}
	stmts := map[bool]*Stmt{}
	for _, filtered := range []bool{false, true} {
		clauses := []Clause{From("R", "S"), Eq("R.b", "S.b")}
		if filtered {
			clauses = append(clauses, Cmp("R.a", LE, 2))
		}
		stmt, err := db.Prepare(clauses...)
		if err != nil {
			t.Fatal(err)
		}
		stmts[filtered] = stmt
	}
	check := func(step string) {
		t.Helper()
		for filtered, stmt := range stmts {
			q := &core.Query{Equalities: []core.Equality{{A: "R.b", B: "S.b"}}}
			for _, name := range []string{"R", "S"} {
				r, _ := db.Relation(name)
				r = r.Clone()
				if filtered && name == "R" {
					r = r.Filter(func(tp relation.Tuple) bool { return tp[0] <= 2 })
				}
				r.Dedup()
				q.Relations = append(q.Relations, r)
			}
			res, err := stmt.Exec()
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sortedRows(t, res), flatRows(t, q); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, filtered=%v:\n got %v\nwant %v", step, filtered, got, want)
			}
		}
	}
	check("loaded")
	if err := db.Delete("R", 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("S", 20, 200); err != nil {
		t.Fatal(err)
	}
	check("after deletes")
}

// TestExecAggContextCancellation: a cancelled context aborts the
// aggregation pass itself, not only the load: the statement's encoding is
// memoised by a first execution, so the second has nothing else to abort.
func TestExecAggContextCancellation(t *testing.T) {
	db := New()
	db.MustCreate("A", "x", "p")
	db.MustCreate("B", "y", "q")
	for i := 0; i < 2000; i++ {
		db.MustInsert("A", i%40, i)
		db.MustInsert("B", i%40, i%97)
	}
	stmt, err := db.Prepare(From("A", "B"), Eq("A.x", "B.y"), GroupBy("A.x"),
		Agg(Count, ""), Agg(CountDistinct, "B.q"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := stmt.ExecAgg()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := stmt.ExecAggContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	got, err := stmt.ExecAgg()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows(0), want.Rows(0)) || got.Len() != 40 {
		t.Fatalf("after a cancelled aggregation: %v, want %v", got.Rows(0), want.Rows(0))
	}
}

func TestFingerprintStability(t *testing.T) {
	db := grocery(t)
	fp := func(from ...string) string {
		t.Helper()
		s, err := compileSpec(modeQuery, []Clause{From(from...)})
		if err != nil {
			t.Fatal(err)
		}
		b, err := db.bind(s)
		if err != nil {
			t.Fatal(err)
		}
		return b.fingerprint()
	}
	s1, s2 := fp("Orders", "Store"), fp("Store", "Orders")
	if s1 != s2 {
		t.Fatalf("permuted From changed fingerprint:\n%s\n%s", s1, s2)
	}
	if s1 == fp("Orders") {
		t.Fatal("different queries share a fingerprint")
	}
}
