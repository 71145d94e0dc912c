package fdb

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
)

// persistFixture builds a database with integer and string data, plus a
// warmed plan cache so the snapshot carries pre-built encodings.
func persistFixture(t *testing.T) (*DB, []Clause, []Clause) {
	t.Helper()
	db := New()
	db.MustCreate("Orders", "oid", "item")
	db.MustCreate("Stock", "location", "item")
	for i := 1; i <= 40; i++ {
		db.MustInsert("Orders", i, itemName(i%7))
		db.MustInsert("Stock", i%5, itemName(i%7))
	}
	join := []Clause{From("Orders"), From("Stock"), Eq("Orders.item", "Stock.item")}
	agg := []Clause{From("Orders"), From("Stock"), Eq("Orders.item", "Stock.item"),
		GroupBy("Stock.location"), Agg(Count, ""), Agg(Sum, "Orders.oid")}
	// Warm the plan cache so the statements memoise their encodings.
	if _, err := db.Query(join...); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryAgg(agg...); err != nil {
		t.Fatal(err)
	}
	return db, join, agg
}

func itemName(i int) string {
	return []string{"ale", "bun", "cod", "dip", "egg", "fig", "gin"}[i]
}

func queryTable(t *testing.T, db *DB, clauses []Clause) string {
	t.Helper()
	res, err := db.Query(clauses...)
	if err != nil {
		t.Fatal(err)
	}
	return res.Table(-1)
}

func aggTable(t *testing.T, db *DB, clauses []Clause) string {
	t.Helper()
	res, err := db.QueryAgg(clauses...)
	if err != nil {
		t.Fatal(err)
	}
	return res.Table(-1)
}

func TestSaveOpenRoundTrip(t *testing.T) {
	db, join, agg := persistFixture(t)
	wantJoin := queryTable(t, db, join)
	wantAgg := aggTable(t, db, agg)
	// A cached statement that was never executed holds no data: the save
	// must skip it, not trip over it.
	cold := []Clause{From("Orders"), Cmp("Orders.oid", LE, 5)}
	if _, err := db.PrepareCached(cold...); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "snap.fdb")
	if err := db.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := queryTable(t, db2, cold), queryTable(t, db, cold); got != want {
		t.Fatalf("never-executed statement's query diverges after reopen:\n%s\nwant:\n%s", got, want)
	}
	if db2.Version() != db.Version() {
		t.Fatalf("opened version %d, want %d", db2.Version(), db.Version())
	}
	if got, want := db2.Relations(), db.Relations(); len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("opened relations %v, want %v", got, want)
	}
	// Byte-for-byte parity against the live database, strings included (the
	// dictionary round-trips with identical code assignment).
	if got := queryTable(t, db2, join); got != wantJoin {
		t.Fatalf("join table diverges after reopen:\n%s\nwant:\n%s", got, wantJoin)
	}
	if got := aggTable(t, db2, agg); got != wantAgg {
		t.Fatalf("agg table diverges after reopen:\n%s\nwant:\n%s", got, wantAgg)
	}
}

// TestSaveSnapshotAfterJoin: f-plan entries share the plan cache with
// statements but name no relation and carry no encoding, so SaveSnapshot
// skips them: the file writes, reopens and answers like the live database.
func TestSaveSnapshotAfterJoin(t *testing.T) {
	db, join, agg := persistFixture(t)
	orders, err := db.Query(From("Orders"))
	if err != nil {
		t.Fatal(err)
	}
	stock, err := db.Query(From("Stock"))
	if err != nil {
		t.Fatal(err)
	}
	joined, err := orders.Join(stock, Eq("Orders.item", "Stock.item"))
	if err != nil {
		t.Fatal(err)
	}
	cached := false
	for _, ce := range db.cache.entries() {
		cached = cached || ce.fplan != nil
	}
	if !cached {
		t.Fatal("the Join left no f-plan entry to skip; the fixture is broken")
	}
	path := filepath.Join(t.TempDir(), "snap.fdb")
	if err := db.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for fp := range db2.adopted {
		if strings.HasPrefix(fp, "fplan:") {
			t.Fatalf("the snapshot carries an f-plan entry %q", fp)
		}
	}
	if got, want := queryTable(t, db2, join), queryTable(t, db, join); got != want {
		t.Fatalf("join table diverges after reopen:\n%s\nwant:\n%s", got, want)
	}
	if got, want := aggTable(t, db2, agg), aggTable(t, db, agg); got != want {
		t.Fatalf("agg table diverges after reopen:\n%s\nwant:\n%s", got, want)
	}
	orders2, err := db2.Query(From("Orders"))
	if err != nil {
		t.Fatal(err)
	}
	stock2, err := db2.Query(From("Stock"))
	if err != nil {
		t.Fatal(err)
	}
	joined2, err := orders2.Join(stock2, Eq("Orders.item", "Stock.item"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := joined2.Table(-1), joined.Table(-1); got != want {
		t.Fatalf("Join diverges after reopen:\n%s\nwant:\n%s", got, want)
	}
}

// TestOpenedSnapshotAdoptsEnc pins the zero-copy contract: the first query
// on a reopened database must adopt the snapshot-carried arena — sharing
// its backing storage — rather than rebuild.
func TestOpenedSnapshotAdoptsEnc(t *testing.T) {
	db, join, _ := persistFixture(t)
	path := filepath.Join(t.TempDir(), "snap.fdb")
	if err := db.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(db2.adopted) == 0 {
		t.Fatal("opened database carries no adoptable encodings")
	}
	if _, err := db2.Query(join...); err != nil {
		t.Fatal(err)
	}
	adoptedOne := false
	for _, ce := range db2.cache.entries() {
		d := ce.stmt.src.data.Load()
		if d == nil {
			continue
		}
		d.mu.Lock()
		enc := d.enc
		d.mu.Unlock()
		ae := db2.adopted[ce.key]
		if enc == nil || ae == nil || len(enc.A.Vals) == 0 {
			continue
		}
		if &enc.A.Vals[0] == &ae.enc.A.Vals[0] {
			adoptedOne = true
		}
	}
	if !adoptedOne {
		t.Fatal("no cached statement adopted a snapshot-carried arena")
	}
}

// TestOpenedSnapshotWritable: a reopened database is a normal database —
// writes layer deltas over the mapped base and queries see them.
func TestOpenedSnapshotWritable(t *testing.T) {
	db, join, _ := persistFixture(t)
	path := filepath.Join(t.TempDir(), "snap.fdb")
	if err := db.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	before, err := db2.Query(join...)
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.Insert("Stock", 99, "ale"); err != nil {
		t.Fatal(err)
	}
	after, err := db2.Query(join...)
	if err != nil {
		t.Fatal(err)
	}
	if after.Count() <= before.Count() {
		t.Fatalf("insert after reopen invisible: %d -> %d", before.Count(), after.Count())
	}
	// And the mutated database still round-trips through a second snapshot.
	path2 := filepath.Join(t.TempDir(), "snap2.fdb")
	if err := db2.SaveSnapshot(path2); err != nil {
		t.Fatal(err)
	}
	db3, err := OpenSnapshotFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	again, err := db3.Query(join...)
	if err != nil {
		t.Fatal(err)
	}
	if again.Count() != after.Count() {
		t.Fatalf("second round trip diverges: %d, want %d", again.Count(), after.Count())
	}
}

// TestOpenSnapshotFileRejectsCorrupt: the public open path surfaces the
// store's typed format error.
func TestOpenSnapshotFileRejectsCorrupt(t *testing.T) {
	db, _, _ := persistFixture(t)
	path := filepath.Join(t.TempDir(), "snap.fdb")
	if err := db.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	bad := filepath.Join(t.TempDir(), "bad.fdb")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshotFile(bad); !errors.Is(err, store.ErrFormat) {
		t.Fatalf("corrupted snapshot: got %v, want ErrFormat", err)
	}
	if _, err := OpenSnapshotFile(filepath.Join(t.TempDir(), "missing.fdb")); err == nil {
		t.Fatal("missing snapshot opened without error")
	}
}

// TestSaveSnapshotEmptyDB: the degenerate snapshot round-trips too.
func TestSaveSnapshotEmptyDB(t *testing.T) {
	db := New()
	db.MustCreate("Solo", "x")
	path := filepath.Join(t.TempDir(), "empty.fdb")
	if err := db.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db2.Query(From("Solo"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 0 {
		t.Fatalf("empty relation reopened with %d tuples", res.Count())
	}
}
