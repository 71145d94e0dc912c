package fdb

import (
	"runtime"
	"strings"
	"testing"
)

func seedPC(t *testing.T) *DB {
	t.Helper()
	db := New()
	db.MustCreate("R", "a", "b")
	for i := 0; i < 50; i++ {
		db.MustInsert("R", i%10, i%7)
	}
	db.MustCreate("S", "b", "c")
	for i := 0; i < 30; i++ {
		db.MustInsert("S", i%7, i%5)
	}
	return db
}

// TestPrepareSharesPlans: identical shapes share one *Stmt through the plan
// cache, parameter placeholders included; different shapes don't.
func TestPrepareSharesPlans(t *testing.T) {
	db := seedPC(t)
	shape := []Clause{From("R", "S"), Eq("R.b", "S.b"), Cmp("R.a", EQ, Param("x"))}
	st1, err := db.Prepare(shape...)
	if err != nil {
		t.Fatal(err)
	}
	before := db.CacheStats()
	st2, err := db.Prepare(shape...)
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Fatal("same shape compiled twice")
	}
	if after := db.CacheStats(); after.Hits != before.Hits+1 {
		t.Fatalf("no cache hit: %+v -> %+v", before, after)
	}
	// A different placeholder name is a different plan identity.
	st3, err := db.Prepare(From("R", "S"), Eq("R.b", "S.b"), Cmp("R.a", EQ, Param("y")))
	if err != nil {
		t.Fatal(err)
	}
	if st3 == st1 {
		t.Fatal("different parameter name aliased to the same cached plan")
	}
	// The shared statement still executes with per-call bindings.
	r1, err := st1.Exec(Arg("x", 3))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := st2.Exec(Arg("x", 4))
	if err != nil {
		t.Fatal(err)
	}
	for want, got := range map[int]*Result{3: r1, 4: r2} {
		ref, err := db.Query(From("R", "S"), Eq("R.b", "S.b"), Cmp("R.a", EQ, want))
		if err != nil {
			t.Fatal(err)
		}
		if got.Count() == 0 || got.Count() != ref.Count() {
			t.Fatalf("binding x=%d returned %d tuples, want %d", want, got.Count(), ref.Count())
		}
	}
	// Invalid shapes are rejected before touching the cache.
	if _, err := db.Prepare(From("R"), GroupBy("R.a")); err == nil {
		t.Fatal("GroupBy without Agg accepted")
	}
}

// TestPreparePermutationHitsCache: Prepare resolves through the plan cache by
// the query's canonical fingerprint, so a syntactic permutation of a shape —
// inputs, equality sides and clauses reordered — is one miss and then one
// hit on the same *Stmt.
func TestPreparePermutationHitsCache(t *testing.T) {
	db := seedPC(t)
	before := db.CacheStats()
	st1, err := db.Prepare(From("R", "S"), Eq("R.b", "S.b"), Cmp("R.a", LE, Param("x")), Cmp("S.c", EQ, 2))
	if err != nil {
		t.Fatal(err)
	}
	st2, err := db.Prepare(Cmp("S.c", EQ, 2), Cmp("R.a", LE, Param("x")), Eq("S.b", "R.b"), From("S", "R"))
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Fatal("a permutation of one shape prepared a second statement")
	}
	if after := db.CacheStats(); after.Misses != before.Misses+1 || after.Hits != before.Hits+1 || after.Entries != before.Entries+1 {
		t.Fatalf("two prepares of one shape: cache went %+v -> %+v, want +1 miss, +1 hit, +1 entry", before, after)
	}
}

// TestPrepareEvictionFreesHolder: the plan cache is what keeps a prepared
// statement the caller dropped alive, so once planCacheCap other shapes
// have evicted it, its data holder leaves the registry.
func TestPrepareEvictionFreesHolder(t *testing.T) {
	db := seedPC(t)
	st, err := db.Prepare(From("R", "S"), Eq("R.b", "S.b"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(); err != nil {
		t.Fatal(err)
	}
	key := st.src.key
	st = nil
	holds := func() bool {
		db.srcs.mu.Lock()
		defer db.srcs.mu.Unlock()
		_, ok := db.srcs.m[key]
		return ok
	}
	runtime.GC()
	if !holds() {
		t.Fatal("the plan cache did not keep a dropped statement's holder")
	}
	evictAll(t, db)
	eventually(t, "an evicted statement's holder is still registered", func() bool { return !holds() })
}

// evictAll prepares planCacheCap shapes over the database's first relation
// alone, which differ only in their limit: they fill the plan cache,
// evicting every earlier entry, and share one data holder between them.
func evictAll(t *testing.T, db *DB) {
	t.Helper()
	rel := db.Relations()[0]
	for i := 0; i < planCacheCap; i++ {
		mustPrepare(t, db, From(rel), Limit(i+1))
	}
}

// TestSnapshotBind: a cached statement pinned to a snapshot reads the
// pinned version while the original keeps reading live data.
func TestSnapshotBind(t *testing.T) {
	db := seedPC(t)
	st, err := db.Prepare(From("R"), Cmp("R.a", EQ, Param("x")))
	if err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	pinned, err := snap.Bind(st)
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := pinned.Exec(Arg("x", 3))
	if err != nil {
		t.Fatal(err)
	}
	base := baseRes.Count()
	db.MustInsert("R", 3, 999)
	liveRes, err := st.Exec(Arg("x", 3))
	if err != nil {
		t.Fatal(err)
	}
	if liveRes.Count() != base+1 {
		t.Fatalf("live statement missed the write: %d, want %d", liveRes.Count(), base+1)
	}
	againRes, err := pinned.Exec(Arg("x", 3))
	if err != nil {
		t.Fatal(err)
	}
	if againRes.Count() != base {
		t.Fatalf("pinned statement saw the write: %d, want %d", againRes.Count(), base)
	}

	// Binding an already-pinned statement is an error.
	if _, err := snap.Bind(pinned); err == nil || !strings.Contains(err.Error(), "already pinned") {
		t.Fatalf("double pin: %v", err)
	}
	// Binding a statement from another database is an error.
	other := seedPC(t)
	stOther, err := other.Prepare(From("R"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Bind(stOther); err == nil || !strings.Contains(err.Error(), "different DB") {
		t.Fatalf("cross-database bind: %v", err)
	}
	// A relation created after the snapshot is not in the pinned cut.
	db.MustCreate("Late", "z")
	db.MustInsert("Late", 1)
	stLate, err := db.Prepare(From("Late"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Bind(stLate); err == nil || !strings.Contains(err.Error(), "created after") {
		t.Fatalf("bind of a post-snapshot relation: %v", err)
	}
	// Nil statements fail loudly.
	if _, err := snap.Bind(nil); err == nil {
		t.Fatal("nil bind accepted")
	}
	// A closed snapshot rejects new binds and fails pinned reads.
	snap.Close()
	if _, err := snap.Bind(st); err == nil {
		t.Fatal("bind on a closed snapshot accepted")
	}
	if _, err := pinned.Exec(Arg("x", 3)); err == nil {
		t.Fatal("pinned exec after snapshot close succeeded")
	}
	// The live statement is untouched by the snapshot lifecycle.
	if _, err := st.Exec(Arg("x", 3)); err != nil {
		t.Fatalf("live statement broken after snapshot close: %v", err)
	}
}

// TestSnapshotBindAggregate: pinned aggregates follow the same rules.
func TestSnapshotBindAggregate(t *testing.T) {
	db := seedPC(t)
	st, err := db.Prepare(From("R", "S"), Eq("R.b", "S.b"), GroupBy("R.a"), Agg(Count, ""))
	if err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	defer snap.Close()
	pinned, err := snap.Bind(st)
	if err != nil {
		t.Fatal(err)
	}
	before, err := pinned.ExecAgg()
	if err != nil {
		t.Fatal(err)
	}
	db.MustInsert("R", 99, 1)
	after, err := pinned.ExecAgg()
	if err != nil {
		t.Fatal(err)
	}
	b, a := before.Rows(0), after.Rows(0)
	if len(b) != len(a) {
		t.Fatalf("pinned aggregate moved: %d groups then %d", len(b), len(a))
	}
	liveAfter, err := st.ExecAgg()
	if err != nil {
		t.Fatal(err)
	}
	if len(liveAfter.Rows(0)) != len(b)+1 {
		t.Fatalf("live aggregate missed the new group: %d, want %d", len(liveAfter.Rows(0)), len(b)+1)
	}
}

// cacheEntries returns a copy of the plan cache's entries, MRU first.
func cacheEntries(db *DB) []cacheEntry {
	c := db.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]cacheEntry, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, *el.Value.(*cacheEntry))
	}
	return out
}
