package fdb

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/relation"
)

// TestWriteSetSemantics: duplicate inserts and absent deletes are no-ops;
// the version bumps once per effective commit.
func TestWriteSetSemantics(t *testing.T) {
	db := New()
	db.MustCreate("R", "a", "b")
	v0 := db.Version()
	db.MustInsert("R", 1, 10)
	db.MustInsert("R", 1, 10) // duplicate: still one tuple
	r, _ := db.Relation("R")
	if len(r.Tuples) != 1 {
		t.Fatalf("duplicate insert duplicated: %d tuples", len(r.Tuples))
	}
	if err := db.Delete("R", 9, 9); err != nil { // absent: no-op
		t.Fatal(err)
	}
	if err := db.Delete("R", 1, 10); err != nil {
		t.Fatal(err)
	}
	r, _ = db.Relation("R")
	if len(r.Tuples) != 0 {
		t.Fatalf("delete missed: %d tuples", len(r.Tuples))
	}
	if db.Version() <= v0 {
		t.Fatalf("version did not advance: %d <= %d", db.Version(), v0)
	}
	// Arity and unknown-relation errors.
	if err := db.Insert("R", 1); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("arity: err = %v", err)
	}
	if err := db.Insert("Ghost", 1, 2); err == nil {
		t.Fatal("insert into unknown relation accepted")
	}
	if err := db.Delete("Ghost", 1, 2); err == nil {
		t.Fatal("delete from unknown relation accepted")
	}
}

// TestUpsertKeyPrefix: upsert removes every live tuple agreeing on the key
// prefix, then inserts; upserting an unchanged tuple keeps it.
func TestUpsertKeyPrefix(t *testing.T) {
	db := New()
	db.MustCreate("KV", "k", "v")
	db.MustInsert("KV", 1, 10)
	db.MustInsert("KV", 1, 11) // sets are fine: two tuples share the key
	db.MustInsert("KV", 2, 20)
	if err := db.Upsert("KV", 1, 1, 99); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(From("KV"))
	if err != nil {
		t.Fatal(err)
	}
	got := res.Rows(0)
	want := [][]string{{"1", "99"}, {"2", "20"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after upsert: %v, want %v", got, want)
	}
	// Upserting the exact live tuple keeps it (dels apply before adds).
	if err := db.Upsert("KV", 1, 2, 20); err != nil {
		t.Fatal(err)
	}
	res, _ = db.Query(From("KV"))
	if !reflect.DeepEqual(res.Rows(0), want) {
		t.Fatalf("idempotent upsert changed data: %v", res.Rows(0))
	}
	if err := db.Upsert("KV", 0, 1, 1); err == nil {
		t.Fatal("zero key columns accepted")
	}
	if err := db.Upsert("KV", 3, 1, 1); err == nil {
		t.Fatal("key wider than schema accepted")
	}
}

// TestUpsertBatchRejectsDuplicateKey: single Upserts keep one row per key, so
// a batch carrying one key twice is refused whole — naming the key, changing
// no data and bumping no version — rather than storing both rows.
func TestUpsertBatchRejectsDuplicateKey(t *testing.T) {
	db := New()
	db.MustCreate("R", "k", "v")
	db.MustInsert("R", 1, 10)
	v0 := db.Version()
	err := db.UpsertBatch("R", 1, [][]interface{}{{1, 20}, {2, 5}, {1, 30}})
	if err == nil || !strings.Contains(err.Error(), "key [1]") {
		t.Fatalf("duplicate-key upsert batch: err = %v, want one naming key [1]", err)
	}
	if db.Version() != v0 {
		t.Fatalf("rejected batch bumped the version %d -> %d", v0, db.Version())
	}
	res, err := db.Query(From("R"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Rows(0), [][]string{{"1", "10"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after the rejected batch: %v, want %v", got, want)
	}
	// Distinct keys in one batch still upsert together.
	if err := db.UpsertBatch("R", 1, [][]interface{}{{1, 20}, {2, 5}}); err != nil {
		t.Fatal(err)
	}
	res, _ = db.Query(From("R"))
	if got, want := res.Rows(0), [][]string{{"1", "20"}, {"2", "5"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after a distinct-key batch: %v, want %v", got, want)
	}
}

// TestSnapshotIsolation: a snapshot pinned before a write keeps returning
// the pinned rows bit-for-bit, across writes AND compaction, while live
// queries see every commit; Close makes further reads fail loudly.
func TestSnapshotIsolation(t *testing.T) {
	db := New()
	db.MustCreate("R", "a", "b")
	for i := 0; i < 40; i++ {
		db.MustInsert("R", i, i%5)
	}
	q := []Clause{From("R"), Cmp("R.b", EQ, 3)}
	snap := db.Snapshot()
	// The selection bound per Exec gives pinnedStmt a holder key of its own
	// on the snapshot, so its first Exec, after the writes and the
	// compaction, loads the pinned cut itself.
	pinnedStmt, err := pinPrepare(snap, From("R"), Cmp("R.b", EQ, Param("b")))
	if err != nil {
		t.Fatal(err)
	}
	res0, err := pinQuery(snap, q...)
	if err != nil {
		t.Fatal(err)
	}
	want := res0.Rows(0)
	if db.OpenSnapshots() != 1 {
		t.Fatalf("OpenSnapshots = %d", db.OpenSnapshots())
	}
	// Mutate heavily, then compact the delta chain away.
	for i := 40; i < 200; i++ {
		db.MustInsert("R", i, i%5)
	}
	for i := 0; i < 20; i++ {
		if err := db.Delete("R", i, i%5); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Compact("R"); err != nil {
		t.Fatal(err)
	}
	for _, rerun := range []*Result{
		mustQuery(t, func() (*Result, error) { return pinQuery(snap, q...) }),
		mustQuery(t, func() (*Result, error) { return pinnedStmt.Exec(Arg("b", 3)) }),
	} {
		if got := rerun.Rows(0); !reflect.DeepEqual(got, want) {
			t.Fatalf("snapshot drifted:\n got %v\nwant %v", got, want)
		}
	}
	// The live view moved on.
	live, err := db.Query(q...)
	if err != nil {
		t.Fatal(err)
	}
	if int(live.Count()) == len(want) {
		t.Fatal("live query still serving the snapshot view")
	}
	snap.Close()
	snap.Close() // idempotent
	if db.OpenSnapshots() != 0 {
		t.Fatalf("OpenSnapshots after close = %d", db.OpenSnapshots())
	}
	if _, err := pinQuery(snap, q...); err == nil {
		t.Fatal("query on closed snapshot succeeded")
	}
	if _, err := pinnedStmt.Exec(Arg("b", 3)); err == nil || !strings.Contains(err.Error(), "snapshot closed") {
		t.Fatalf("pinned stmt after close: err = %v", err)
	}
}

func mustQuery(t *testing.T, f func() (*Result, error)) *Result {
	t.Helper()
	res, err := f()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestResultSurvivesCompaction: a Result (and its decoded Rep) built from a
// version that is later compacted away keeps iterating the old rows — the
// version chain pins tuple storage and the result owns its representation.
func TestResultSurvivesCompaction(t *testing.T) {
	db := New()
	db.MustCreate("R", "a", "b")
	db.MustCreate("S", "b", "c")
	for i := 0; i < 60; i++ {
		db.MustInsert("R", i, i%6)
		db.MustInsert("S", i%6, i)
	}
	res, err := db.Query(From("R", "S"), Eq("R.b", "S.b"))
	if err != nil {
		t.Fatal(err)
	}
	it := res.Iter() // live iterator across the compaction
	var first []string
	want := res.Count()
	// Overwrite everything and compact while the iterator is live.
	for i := 0; i < 60; i++ {
		if err := db.Delete("R", i, i%6); err != nil {
			t.Fatal(err)
		}
	}
	db.MustInsert("R", 999, 0)
	if err := db.Compact("R"); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact("S"); err != nil {
		t.Fatal(err)
	}
	n := int64(0)
	for {
		tp, ok := it.Next()
		if !ok {
			break
		}
		if first == nil {
			first = []string{fmt.Sprint(tp)}
		}
		n++
	}
	if n != want {
		t.Fatalf("iterator lost rows under compaction: %d != %d", n, want)
	}
	if res.Count() != want {
		t.Fatalf("count after compaction: %d != %d", res.Count(), want)
	}
}

// TestStmtRefreshAfterCompaction: a prepared statement whose held version
// predates a compaction re-snapshots instead of merging, and serves data
// identical to a fresh plan over a copy of the database.
func TestStmtRefreshAfterCompaction(t *testing.T) {
	db := New()
	db.MustCreate("R", "a", "b")
	db.MustCreate("S", "b", "c")
	for i := 0; i < 30; i++ {
		db.MustInsert("R", i, i%4)
		db.MustInsert("S", i%4, i)
	}
	stmt, err := db.Prepare(From("R", "S"), Eq("R.b", "S.b"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Exec(); err != nil {
		t.Fatal(err)
	}
	for i := 30; i < 90; i++ {
		db.MustInsert("R", i, i%4)
	}
	if err := db.Compact("R"); err != nil {
		t.Fatal(err)
	}
	got, err := stmt.Exec()
	if err != nil {
		t.Fatal(err)
	}
	// Cold, on a copy: a query on db would share stmt's data holder.
	fresh, err := coldCopy(t, db).Query(From("R", "S"), Eq("R.b", "S.b"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != fresh.Count() {
		t.Fatalf("post-compaction refresh diverged: %d != %d", got.Count(), fresh.Count())
	}
}

// TestStmtIncrementalRefreshParity: interleaved inserts, deletes, upserts
// and a compaction keep long-lived prepared statements in lockstep with
// freshly compiled ones — the refreshed inputs never drift, and the encoding
// rebuilt from them equals a cold build, on a copy of the database, column
// for column. A statement of the same shape prepared on the database itself
// shares the long-lived one's data holder. Two shapes over
// the chain R ⋈ S ⋈ T with writes to R and S: the plain join roots at their
// shared class b, and ordered by T.d it roots at T.d with both written
// relations below it.
func TestStmtIncrementalRefreshParity(t *testing.T) {
	db := New()
	db.MustCreate("R", "a", "b")
	db.MustCreate("S", "b", "c")
	db.MustCreate("T", "c", "d")
	for i := 0; i < 50; i++ {
		db.MustInsert("R", i, i%7)
		db.MustInsert("S", i%7, i%11)
		db.MustInsert("T", i%11, i%5)
	}
	join := []Clause{From("R", "S", "T"), Eq("R.b", "S.b"), Eq("S.c", "T.c"), Cmp("S.c", LT, 9)}
	shapes := []struct {
		clauses []Clause
		root    string // the compiled f-tree's first line
	}{
		{join, "R.b,S.b"},
		{append(join[:len(join):len(join)], OrderBy("T.d")), "T.d"},
	}
	stmts := make([]*Stmt, len(shapes))
	for i, sh := range shapes {
		st, err := db.Prepare(sh.clauses...)
		if err != nil {
			t.Fatal(err)
		}
		if root, _, _ := strings.Cut(st.FTree(), "\n"); root != sh.root {
			t.Fatalf("shape %d roots at %q, want %q", i, root, sh.root)
		}
		stmts[i] = st
	}
	for step := 0; step < 25; step++ {
		switch {
		case step == 13:
			db.MustInsert("R", 100+step, step%7)
			if err := db.Compact("R"); err != nil {
				t.Fatal(err)
			}
		case step%4 == 0:
			db.MustInsert("R", 100+step, step%7)
		case step%4 == 1:
			if err := db.Delete("R", step, step%7); err != nil {
				t.Fatal(err)
			}
		case step%4 == 2:
			if err := db.Upsert("S", 1, step%7, step%13); err != nil {
				t.Fatal(err)
			}
		default:
			db.MustInsert("S", step%7, (step*3)%11)
		}
		// The reference is built cold, outside the registry: a new database
		// loaded with the current rows. A statement prepared on db itself
		// would share the long-lived statement's data holder, and compare
		// its encoding with itself.
		cold := coldCopy(t, db)
		for i, st := range stmts {
			got, err := st.Exec()
			if err != nil {
				t.Fatalf("step %d shape %d: %v", step, i, err)
			}
			twin, err := db.Prepare(shapes[i].clauses...)
			if err != nil {
				t.Fatalf("step %d shape %d: %v", step, i, err)
			}
			if twin.src != st.src {
				t.Fatalf("step %d shape %d: a statement of the same shape does not share the data holder", step, i)
			}
			fresh, err := cold.Prepare(shapes[i].clauses...)
			if err != nil {
				t.Fatalf("step %d shape %d: %v", step, i, err)
			}
			want, err := fresh.Exec()
			if err != nil {
				t.Fatalf("step %d shape %d: %v", step, i, err)
			}
			if got.Count() != want.Count() {
				t.Fatalf("step %d shape %d: refreshed stmt diverged: %d != %d", step, i, got.Count(), want.Count())
			}
			if !reflect.DeepEqual(got.Rows(0), want.Rows(0)) {
				t.Fatalf("step %d shape %d: refreshed rows diverged", step, i)
			}
			if !got.Enc().Equal(want.Enc()) {
				t.Fatalf("step %d shape %d: refreshed encoding differs from a cold build", step, i)
			}
		}
	}
}

// coldCopy returns a new database holding db's relations with their current
// rows (integer data only): statements prepared on it load and build from
// nothing db's statements hold.
func coldCopy(t *testing.T, db *DB) *DB {
	t.Helper()
	out := New()
	for _, name := range db.Relations() {
		r, _ := db.Relation(name)
		attrs := make([]string, len(r.Schema))
		for i, a := range r.Schema {
			attrs[i] = strings.TrimPrefix(string(a), name+".")
		}
		out.MustCreate(name, attrs...)
		rows := make([][]interface{}, len(r.Tuples))
		for i, tp := range r.Tuples {
			rows[i] = make([]interface{}, len(tp))
			for j, v := range tp {
				rows[i][j] = v
			}
		}
		if err := out.InsertBatch(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestCacheHitRateReadMostly: under a read-mostly mixed workload the plan
// cache keeps serving (writes never evict), with a hit rate above 90%.
func TestCacheHitRateReadMostly(t *testing.T) {
	db := New()
	db.MustCreate("R", "a", "b")
	db.MustCreate("S", "b", "c")
	for i := 0; i < 100; i++ {
		db.MustInsert("R", i, i%9)
		db.MustInsert("S", i%9, i)
	}
	queries := [][]Clause{
		{From("R", "S"), Eq("R.b", "S.b")},
		{From("R"), Cmp("R.b", EQ, 3)},
		{From("S"), Cmp("S.c", LT, 50)},
	}
	for i := 0; i < 200; i++ {
		q := queries[i%len(queries)]
		res, err := db.Query(q...)
		if err != nil {
			t.Fatal(err)
		}
		res.Count()
		if i%10 == 9 { // ~10% writes
			db.MustInsert("R", 1000+i, i%9)
		}
	}
	s := db.CacheStats()
	total := s.Hits + s.Misses
	if rate := float64(s.Hits) / float64(total); rate <= 0.9 {
		t.Fatalf("hit rate %.2f <= 0.90 under read-mostly workload: %+v", rate, s)
	}
}

// TestConcurrentWritersReadersSnapshots: hammer the database from writer,
// reader and snapshot goroutines simultaneously (run under -race).
func TestConcurrentWritersReadersSnapshots(t *testing.T) {
	db := New()
	db.MustCreate("R", "a", "b")
	for i := 0; i < 50; i++ {
		db.MustInsert("R", i, i%5)
	}
	stmt, err := db.Prepare(From("R"), Cmp("R.b", EQ, 2))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	wg.Add(1)
	go func() { // writer: inserts, deletes, upserts, compactions
		defer wg.Done()
		for i := 0; i < 120; i++ {
			switch i % 5 {
			case 0, 1, 2:
				if err := db.Insert("R", 100+i, i%5); err != nil {
					errs <- err
					return
				}
			case 3:
				if err := db.Delete("R", 100+i-3, (i-3)%5); err != nil {
					errs <- err
					return
				}
			case 4:
				if err := db.Compact("R"); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() { // readers: prepared statement re-exec
			defer wg.Done()
			for i := 0; i < 60; i++ {
				res, err := stmt.Exec()
				if err != nil {
					errs <- err
					return
				}
				res.Count()
			}
		}()
	}
	wg.Add(1)
	go func() { // snapshot reader: pin, query twice, verify stability, close
		defer wg.Done()
		for i := 0; i < 25; i++ {
			snap := db.Snapshot()
			a, err := pinQuery(snap, From("R"))
			if err != nil {
				errs <- err
				snap.Close()
				return
			}
			b, err := pinQuery(snap, From("R"))
			if err != nil {
				errs <- err
				snap.Close()
				return
			}
			if a.Count() != b.Count() {
				errs <- fmt.Errorf("snapshot unstable: %d != %d", a.Count(), b.Count())
				snap.Close()
				return
			}
			snap.Close()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if db.OpenSnapshots() != 0 {
		t.Fatalf("leaked snapshots: %d", db.OpenSnapshots())
	}
}

// TestBatchWrites: batch variants commit atomically under one version bump.
func TestBatchWrites(t *testing.T) {
	db := New()
	db.MustCreate("R", "a", "b")
	v0 := db.Version()
	rows := make([][]interface{}, 50)
	for i := range rows {
		rows[i] = []interface{}{i, i % 3}
	}
	if err := db.InsertBatch("R", rows); err != nil {
		t.Fatal(err)
	}
	if db.Version() != v0+1 {
		t.Fatalf("batch insert bumped version %d times", db.Version()-v0)
	}
	r, _ := db.Relation("R")
	if len(r.Tuples) != 50 {
		t.Fatalf("batch insert stored %d tuples", len(r.Tuples))
	}
	if err := db.DeleteBatch("R", rows[:20]); err != nil {
		t.Fatal(err)
	}
	r, _ = db.Relation("R")
	if len(r.Tuples) != 30 {
		t.Fatalf("batch delete left %d tuples", len(r.Tuples))
	}
	if err := db.UpsertBatch("R", 1, [][]interface{}{{20, 99}, {21, 99}}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(From("R"), Cmp("R.b", EQ, 99))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 2 {
		t.Fatalf("batch upsert: %d rows with b=99", res.Count())
	}
}

// TestDeleteUnknownStringMatchesNothing: a removal naming a string the
// dictionary has never seen removes nothing and mints no code, and a
// removal naming a string in an integer attribute is refused for its kind.
func TestDeleteUnknownStringMatchesNothing(t *testing.T) {
	db := New()
	db.MustCreate("R", "a")
	db.MustInsert("R", 0)
	db.MustInsert("R", 5)
	db.MustCreate("S", "b")
	db.MustInsert("S", "x")
	var kerr *KindError
	if err := db.Delete("R", "ghost"); !errors.As(err, &kerr) {
		t.Fatalf("deleting a string from an integer attribute: err = %v, want a *KindError", err)
	}
	if err := db.Delete("S", "ghost"); err != nil {
		t.Fatal(err)
	}
	if n := db.Dict().Len(); n != 1 {
		t.Fatalf("the deletes left %d strings in the dictionary, want 1", n)
	}
	for name, want := range map[string][][]string{"R": {{"0"}, {"5"}}, "S": {{"x"}}} {
		res := mustQuery(t, func() (*Result, error) { return db.Query(From(name)) })
		if got := res.Rows(0); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s after deleting an unknown string: %v, want %v", name, got, want)
		}
	}
}

// TestRefusedInsertMintsNoCode: a batch refused at a later row — for its
// arity, a value's type or a value's kind — encodes none of its strings.
func TestRefusedInsertMintsNoCode(t *testing.T) {
	db := New()
	db.MustCreate("R", "a", "b")
	db.MustInsert("R", "a0", "b0")
	for _, rows := range [][][]interface{}{
		{{"fresh", "fresh"}, {"x"}},
		{{"fresh", "fresh"}, {"x", struct{}{}}},
		{{"fresh", "fresh"}, {"x", 1}},
	} {
		if err := db.InsertBatch("R", rows); err == nil {
			t.Fatalf("batch %v accepted", rows)
		}
		if n := db.Dict().Len(); n != 2 {
			t.Fatalf("refused batch %v left %d strings in the dictionary, want 2", rows, n)
		}
	}
	res := mustQuery(t, func() (*Result, error) { return db.Query(From("R")) })
	if got, want := res.Rows(0), [][]string{{"a0", "b0"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after the refused batches: %v, want %v", got, want)
	}
}

// TestRefusedUpsertMintsNoCode: an upsert batch refused for a repeated key
// is judged on the values as given, before any string is encoded.
func TestRefusedUpsertMintsNoCode(t *testing.T) {
	db := New()
	db.MustCreate("R", "k", "v")
	db.MustInsert("R", "k0", "v0")
	err := db.UpsertBatch("R", 1, [][]interface{}{{"a", "x"}, {"b", "y"}, {"a", "z"}})
	if err == nil || !strings.Contains(err.Error(), "key [a]") {
		t.Fatalf("repeated-key upsert batch: err = %v, want one naming key [a]", err)
	}
	if n := db.Dict().Len(); n != 2 {
		t.Fatalf("the refused batch left %d strings in the dictionary, want 2", n)
	}
	res := mustQuery(t, func() (*Result, error) { return db.Query(From("R")) })
	if got, want := res.Rows(0), [][]string{{"k0", "v0"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after the refused batch: %v, want %v", got, want)
	}
}

// TestUpsertKeysCompareAsStored: an attribute holds one kind, so upsert
// keys compare as given. A batch that mixes a string key with an integer
// one — the integer equal to the string's code, or to the code minting
// would give it — is refused for its kind, whole, and mints nothing; two
// spellings of one integer key are one key.
func TestUpsertKeysCompareAsStored(t *testing.T) {
	for _, c := range []struct {
		name  string
		batch [][]interface{}
	}{
		{"a known string and its code", [][]interface{}{{"Milk", 2}, {0, 3}}},
		{"an unseen string and the code it would get", [][]interface{}{{"Cheese", 2}, {1, 3}}},
	} {
		db := New()
		db.MustCreate("R", "k", "v")
		db.MustInsert("R", "Milk", 1)
		err := db.UpsertBatch("R", 1, c.batch)
		var kerr *KindError
		if !errors.As(err, &kerr) || kerr.Attr != "R.k" || kerr.Want != relation.KindStr || kerr.Got != relation.KindInt {
			t.Fatalf("%s: err = %v, want R.k's kind refusal", c.name, err)
		}
		if n := db.Dict().Len(); n != 1 {
			t.Fatalf("%s: the refused batch left %d strings in the dictionary, want 1", c.name, n)
		}
		res := mustQuery(t, func() (*Result, error) { return db.Query(From("R")) })
		if got, want := res.Rows(0), [][]string{{"Milk", "1"}}; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: after the refused batch: %v, want %v", c.name, got, want)
		}
	}
	db := New()
	db.MustCreate("N", "k", "v")
	if err := db.UpsertBatch("N", 1, [][]interface{}{{1, 2}, {int64(1), 3}}); err == nil || !strings.Contains(err.Error(), "two rows with key") {
		t.Fatalf("int and int64 spellings of one key: err = %v, want a repeated-key refusal", err)
	}
	// Distinct keys still upsert, the unseen string's included.
	db.MustCreate("R", "k", "v")
	db.MustInsert("R", "Milk", 1)
	if err := db.UpsertBatch("R", 1, [][]interface{}{{"Cheese", 2}, {"Pear", 3}, {"Milk", 4}}); err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, func() (*Result, error) { return db.Query(From("R")) })
	if got := res.Count(); got != 3 {
		t.Fatalf("after the upsert: %d tuples %v, want 3", got, res.Rows(0))
	}
}
