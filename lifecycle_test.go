package fdb

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

// goldenFingerprints are plan-cache keys captured at the commit before the
// compile path was split into bind → plan → load. FDBSNAP1 files store them
// and adoptSaved matches on them, so they are a format: a change here
// orphans every encoding a saved snapshot carries.
var goldenFingerprints = []struct {
	clauses []Clause
	want    string
}{
	{nil,
		`R:"Orders"("Orders.oid","Orders.item");"Store"("Store.location","Store.item")|E:"Orders.item"="Store.item"|S:|P:*`},
	{[]Clause{Cmp("Orders.oid", GE, 2)},
		`R:"Orders"("Orders.oid","Orders.item");"Store"("Store.location","Store.item")|E:"Orders.item"="Store.item"|S:"Orders.oid">=2|P:*`},
	{[]Clause{Cmp("Orders.item", EQ, "Milk")}, // a string with a code: baked, but keyed by spelling
		`R:"Orders"("Orders.oid","Orders.item");"Store"("Store.location","Store.item")|E:"Orders.item"="Store.item"|S:|P:*|ssels Orders.item 0 "Milk"`},
	{[]Clause{Cmp("Orders.item", EQ, "Durian")}, // a string without one
		`R:"Orders"("Orders.oid","Orders.item");"Store"("Store.location","Store.item")|E:"Orders.item"="Store.item"|S:|P:*|ssels Orders.item 0 "Durian"`},
	{[]Clause{Cmp("Orders.item", LT, "Milk"), Cmp("Store.location", NE, "Izmir")},
		`R:"Orders"("Orders.oid","Orders.item");"Store"("Store.location","Store.item")|E:"Orders.item"="Store.item"|S:|P:*|ssels Orders.item 2 "Milk",Store.location 1 "Izmir"`},
	{[]Clause{Cmp("Orders.item", EQ, Param("item")), Cmp("Orders.oid", LE, Param("n"))},
		`R:"Orders"("Orders.oid","Orders.item");"Store"("Store.location","Store.item")|E:"Orders.item"="Store.item"|S:|P:*|psels Orders.item 0 $item,Orders.oid 3 $n`},
	{[]Clause{Project("Orders.oid", "Store.location"), OrderBy(Desc("Store.location"), "Orders.oid"), Offset(1), Limit(3)},
		`R:"Orders"("Orders.oid","Orders.item");"Store"("Store.location","Store.item")|E:"Orders.item"="Store.item"|S:|P:"Orders.oid";"Store.location"|order Store.location- Orders.oid+|off 1|lim 3`},
	{[]Clause{Distinct(), Project("Store.location")},
		`R:"Orders"("Orders.oid","Orders.item");"Store"("Store.location","Store.item")|E:"Orders.item"="Store.item"|S:|P:"Store.location"|distinct`},
	{[]Clause{Agg(Count, ""), Agg(Sum, "Orders.oid")},
		`R:"Orders"("Orders.oid","Orders.item");"Store"("Store.location","Store.item")|E:"Orders.item"="Store.item"|S:|P:*|groupby|aggs count sum(Orders.oid)`},
	{[]Clause{GroupBy("Store.location"), Agg(CountDistinct, "Orders.item"), Cmp("Orders.oid", NE, Param("skip"))},
		`R:"Orders"("Orders.oid","Orders.item");"Store"("Store.location","Store.item")|E:"Orders.item"="Store.item"|S:|P:*|psels Orders.oid 1 $skip|groupby Store.location|aggs count_distinct(Orders.item)`},
}

func TestFingerprintGolden(t *testing.T) {
	db := grocery(t)
	for _, g := range goldenFingerprints {
		st, err := db.PrepareCached(append([]Clause{From("Orders", "Store"), Eq("Orders.item", "Store.item")}, g.clauses...)...)
		if err != nil {
			t.Fatal(err)
		}
		if st.fp != g.want {
			t.Errorf("fingerprint moved:\n got %s\nwant %s", st.fp, g.want)
		}
	}
	// Canonical over the syntactic permutations of one query.
	st, err := db.PrepareCached(From("Store", "Orders"), Eq("Store.item", "Orders.item"))
	if err != nil {
		t.Fatal(err)
	}
	if st.fp != goldenFingerprints[0].want {
		t.Errorf("permuted query keyed apart: %s", st.fp)
	}
}

// TestPrepareTouchesNoTuples: a plan is a function of the query and the
// schemas, so Prepare costs the same over 100 rows and over 100 000, and an
// invalid query is rejected before anything is loaded.
func TestPrepareTouchesNoTuples(t *testing.T) {
	sized := func(n int) *DB {
		db := New()
		db.MustCreate("A", "x", "p")
		db.MustCreate("B", "y", "q")
		rows := make([][]interface{}, n)
		for i := range rows {
			rows[i] = []interface{}{i % 97, i}
		}
		for _, name := range []string{"A", "B"} {
			if err := db.InsertBatch(name, rows); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	shape := []Clause{From("A", "B"), Eq("A.x", "B.y"), Cmp("A.p", GE, 10), OrderBy("B.q"), Limit(5)}
	allocs := func(db *DB) float64 {
		return testing.AllocsPerRun(20, func() {
			st, err := db.Prepare(shape...)
			if err != nil {
				t.Fatal(err)
			}
			if st.src.data.Load() != nil {
				t.Fatal("Prepare loaded the statement's inputs")
			}
		})
	}
	small, large := allocs(sized(100)), allocs(sized(100_000))
	if large > small*1.1 || large < small*0.9 {
		t.Fatalf("Prepare allocates with the data: %.0f allocs over 100 rows, %.0f over 100 000", small, large)
	}

	db := sized(100)
	for _, bad := range [][]Clause{
		{From("A"), Cmp("A.nope", EQ, 1)},
		{From("A"), Cmp("A.nope", EQ, Param("v"))},
		{From("A"), GroupBy("A.x")},
		{From("A"), Project("A.x"), OrderBy("A.p")},
	} {
		if st, err := db.Prepare(bad...); err == nil {
			t.Errorf("invalid query %d accepted: %s", len(bad), st.FTree())
		}
	}
}

// TestSnapshotPrepareSharesPlan: the snapshot surface compiles through the
// plan cache, so K snapshots preparing one shape cost one f-tree search, and
// each pinned statement is still repeatable under concurrent writes.
func TestSnapshotPrepareSharesPlan(t *testing.T) {
	db := seedPC(t)
	shape := []Clause{From("R", "S"), Eq("R.b", "S.b"), Cmp("R.a", LE, Param("x"))}
	const k = 4
	before := db.CacheStats()
	snaps := make([]*Snapshot, k)
	stmts := make([]*Stmt, k)
	lazy := make([]*Stmt, k) // prepared now, first executed after the writes
	want := make([]string, k)
	for i := range snaps {
		snaps[i] = db.Snapshot()
		defer snaps[i].Close()
		for _, into := range [][]*Stmt{stmts, lazy} {
			st, err := snaps[i].Prepare(shape...)
			if err != nil {
				t.Fatal(err)
			}
			into[i] = st
			if st.tree != stmts[0].tree {
				t.Fatal("snapshots of one shape compiled separate plans")
			}
		}
		res, err := stmts[i].Exec(Arg("x", 5))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Table(-1)
		db.MustInsert("R", i%5, 100+i) // every snapshot pins a different cut
	}
	if after := db.CacheStats(); after.Misses != before.Misses+1 || after.Hits != before.Hits+2*k-1 {
		t.Fatalf("%d snapshot prepares of one shape: cache went %+v -> %+v, want 1 miss and %d hits", 2*k, before, after, 2*k-1)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			db.MustInsert("R", i%10, 1000+i)
			if err := db.Delete("R", i%10, 1000+i-3); err != nil {
				t.Error(err)
			}
			if i%8 == 0 {
				if err := db.Compact("R"); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	diverged := ""
	for round := 0; round < 20 && diverged == ""; round++ {
		for i := range snaps {
			// lazy[i] loads its inputs here, writes and compactions later
			// than its snapshot: it must still read the snapshot's cut.
			for _, st := range []*Stmt{stmts[i], lazy[i]} {
				res, err := st.Exec(Arg("x", 5))
				if err != nil {
					diverged = err.Error()
				} else if got := res.Table(-1); got != want[i] {
					diverged = "snapshot statement not repeatable under writes:\n" + got + "\nwant:\n" + want[i]
				}
			}
		}
	}
	close(stop)
	wg.Wait()
	if diverged != "" {
		t.Fatal(diverged)
	}

	// The snapshot lifecycle errors are what they were.
	db.MustCreate("Late", "z")
	if _, err := snaps[0].Prepare(From("Late")); err == nil || !strings.Contains(err.Error(), "created after the snapshot") {
		t.Fatalf("prepare of a post-snapshot relation: %v", err)
	}
	if _, err := snaps[0].Query(From("Late")); err == nil || !strings.Contains(err.Error(), "created after the snapshot") {
		t.Fatalf("query of a post-snapshot relation: %v", err)
	}
	snaps[0].Close()
	if _, err := snaps[0].Prepare(shape...); !errors.Is(err, errSnapshotClosed) {
		t.Fatalf("prepare on a closed snapshot: %v", err)
	}
	if _, err := snaps[0].QueryAgg(From("R"), Agg(Count, "")); !errors.Is(err, errSnapshotClosed) {
		t.Fatalf("aggregate on a closed snapshot: %v", err)
	}
	if _, err := stmts[0].Exec(Arg("x", 5)); !errors.Is(err, errSnapshotClosed) {
		t.Fatalf("pinned exec after close: %v", err)
	}
}
