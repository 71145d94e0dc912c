package fdb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/relation"
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
	if _, err := db.Prepare(cold...); err != nil {
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
// statements but hold no data, and persistence reads only the data holders:
// the file carries exactly one arena per live holder with a built encoding,
// under the holder's key, and reopens to answer like the live database.
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
	for _, ce := range cacheEntries(db) {
		cached = cached || ce.fplan != nil
	}
	if !cached {
		t.Fatal("the Join left no f-plan entry to skip; the fixture is broken")
	}
	// The registry holds weak pointers: pin the holders the save must find.
	holders := db.srcs.live()
	path := filepath.Join(t.TempDir(), "snap.fdb")
	if err := db.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(holders)
	db2, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	built := 0
	for _, src := range holders {
		d := src.data.Load()
		if d == nil {
			continue
		}
		d.mu.Lock()
		enc := d.enc
		d.mu.Unlock()
		if enc == nil {
			continue
		}
		built++
		if _, ok := db2.adopted[src.key]; !ok {
			t.Fatalf("the snapshot lacks the arena of holder %q", src.key)
		}
	}
	if built < 4 || len(db2.adopted) != built {
		t.Fatalf("the snapshot carries %d arenas for %d holders with an encoding (want at least 4: join, agg, Orders, Stock)",
			len(db2.adopted), built)
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

// TestOpenedSnapshotAdoptsEnc pins the zero-copy contract: the first
// execution on a reopened database must adopt the snapshot-carried arena —
// sharing its backing storage — rather than rebuild.
func TestOpenedSnapshotAdoptsEnc(t *testing.T) {
	db, join, _ := persistFixture(t)
	st, err := db.Prepare(join...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.fdb")
	if err := db.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(st)
	db2, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := db2.Prepare(join...)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := db2.adopted[st2.src.key]; !ok {
		t.Fatalf("opened database carries no arena under the join's holder key %q", st2.src.key)
	}
	if _, err := st2.Exec(); err != nil {
		t.Fatal(err)
	}
	if !st2.Explain().Adopted {
		t.Fatal("the first execution rebuilt instead of adopting the snapshot-carried arena")
	}
}

// savedQ1 saves a database whose only executed statements are Q1 and its
// projection, and returns the file, the clauses and their tables on the
// live database.
func savedQ1(t *testing.T) (path string, stmts [][]Clause, want []string) {
	t.Helper()
	db := grocery(t)
	q1 := []Clause{From("Orders", "Store", "Disp"), Eq("Orders.item", "Store.item"), Eq("Store.location", "Disp.location")}
	stmts = [][]Clause{q1, append(append([]Clause{}, q1...), Project("Orders.oid", "Disp.dispatcher"))}
	var live []*Stmt
	for _, clauses := range stmts {
		st, err := db.Prepare(clauses...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := st.Exec()
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, st)
		want = append(want, res.Table(-1))
	}
	path = filepath.Join(t.TempDir(), "q1.fdb")
	if err := db.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(live)
	return path, stmts, want
}

// TestSaveSnapshotOneArenaPerHolder: Q1 and its projection share one data
// holder, so the file carries one arena, and the same two statements
// prepared on the reopened database both serve their first execution from
// it.
func TestSaveSnapshotOneArenaPerHolder(t *testing.T) {
	path, stmts, want := savedQ1(t)
	f, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Encs) != 1 {
		t.Fatalf("the snapshot carries %d arenas for one holder", len(f.Encs))
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, clauses := range stmts {
		st, err := db2.Prepare(clauses...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := st.Exec()
		if err != nil {
			t.Fatal(err)
		}
		if !st.Explain().Adopted {
			t.Fatalf("statement %d rebuilt instead of adopting the carried arena", i)
		}
		if got := res.Table(-1); got != want[i] {
			t.Fatalf("statement %d diverges after reopen:\n%s\nwant:\n%s", i, got, want[i])
		}
	}
}

// TestOpenedSnapshotIgnoresFingerprintKeys: a file whose arena is named by Q1's
// plan-cache fingerprint — how files were keyed before holder keys — opens,
// adopts nothing and answers like the live database.
func TestOpenedSnapshotIgnoresFingerprintKeys(t *testing.T) {
	path, stmts, want := savedQ1(t)
	f, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	encs := append([]store.Enc(nil), f.Encs...)
	encs[0].Key = `R:"Disp"("Disp.dispatcher","Disp.location");"Orders"("Orders.oid","Orders.item");"Store"("Store.location","Store.item")|E:"Disp.location"="Store.location";"Orders.item"="Store.item"|S:|P:*`
	old := filepath.Join(t.TempDir(), "fingerprint.fdb")
	if err := store.Write(old, &store.Set{Ver: f.Ver, Dict: f.Dict, Rels: f.Rels, Encs: encs}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenSnapshotFile(old)
	if err != nil {
		t.Fatal(err)
	}
	carried, ok := db2.adopted[encs[0].Key]
	if len(db2.adopted) != 1 || !ok {
		t.Fatalf("opened database indexes %d arenas, want the file's one", len(db2.adopted))
	}
	for i, clauses := range stmts {
		st, err := db2.Prepare(clauses...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := st.Exec()
		if err != nil {
			t.Fatal(err)
		}
		if enc := st.src.data.Load().enc; &enc.A.Vals[0] == &carried.Enc.A.Vals[0] {
			t.Fatalf("statement %d adopted an arena keyed by a plan fingerprint", i)
		}
		if got := res.Table(-1); got != want[i] {
			t.Fatalf("statement %d diverges after reopen:\n%s\nwant:\n%s", i, got, want[i])
		}
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

// TestOpenedSnapshotPinnedAdopts: a statement pinned to a snapshot of a
// freshly opened database reads the file's versions, so its holder adopts
// the carried arena under its key, as a live statement's does.
func TestOpenedSnapshotPinnedAdopts(t *testing.T) {
	db, join, _ := persistFixture(t)
	path := filepath.Join(t.TempDir(), "snap.fdb")
	if err := db.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap := db2.Snapshot()
	defer snap.Close()
	st, err := pinPrepare(snap, join...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Explain().Adopted {
		t.Fatal("the pinned statement rebuilt instead of adopting the snapshot-carried arena")
	}
	if got, want := res.Table(-1), queryTable(t, db, join); got != want {
		t.Fatalf("pinned on the reopened database:\n%s\nwant:\n%s", got, want)
	}
}

// TestBulkLoadsAreSets: a relation is a set however it arrives. A TSV file
// and a snapshot file that repeat a row each load it once, so the stored
// relation, what a save writes and what a query returns agree.
func TestBulkLoadsAreSets(t *testing.T) {
	dir := t.TempDir()
	tsv := filepath.Join(dir, "r.tsv")
	if err := os.WriteFile(tsv, []byte("R\ta\tb\n3\t4\n1\t2\n1\t2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	bag := relation.New("S", relation.Schema{"S.a", "S.b"})
	bag.Append(3, 4)
	bag.Append(1, 2)
	bag.Append(3, 4)
	fdbPath := filepath.Join(dir, "s.fdb")
	if err := store.Write(fdbPath, &store.Set{Ver: 1, Rels: []store.Relation{{Ver: 1, Rel: bag}}}); err != nil {
		t.Fatal(err)
	}
	opened, err := OpenSnapshotFile(fdbPath)
	if err != nil {
		t.Fatal(err)
	}
	loaded := New()
	if _, err := loaded.LoadTSV(tsv); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		file, name string
		db         *DB
	}{{"tsv", "R", loaded}, {"snapshot", "S", opened}} {
		t.Run(c.file, func(t *testing.T) {
			r, _ := c.db.Relation(c.name)
			if got := fmt.Sprint(r.Tuples); got != "[[1 2] [3 4]]" {
				t.Fatalf("%s stored as %s, want the sorted set [[1 2] [3 4]]", c.name, got)
			}
			resaved := filepath.Join(dir, c.name+".resaved.fdb")
			if err := c.db.SaveSnapshot(resaved); err != nil {
				t.Fatal(err)
			}
			f, err := store.Open(resaved)
			if err != nil {
				t.Fatal(err)
			}
			n := len(f.Rels[0].Rel.Tuples)
			f.Close()
			if n != 2 {
				t.Fatalf("%s saved with %d tuples, want 2", c.name, n)
			}
			res := mustQuery(t, func() (*Result, error) { return c.db.Query(From(c.name)) })
			if res.Count() != 2 {
				t.Fatalf("%s query returns %d rows, want 2", c.name, res.Count())
			}
		})
	}
}
