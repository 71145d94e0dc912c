package fdb

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"repro/internal/core"
	"repro/internal/rdb"
)

// groceryJoin is Example 1's Q1 = Orders ⋈ Store ⋈ Disp.
var groceryJoin = []Clause{From("Orders", "Store", "Disp"), Eq("Orders.item", "Store.item"), Eq("Store.location", "Disp.location")}

// withJoin returns the grocery join's clauses followed by extra.
func withJoin(extra ...Clause) []Clause {
	return append(append([]Clause(nil), groceryJoin...), extra...)
}

func mustPrepare(t *testing.T, db *DB, clauses ...Clause) *Stmt {
	t.Helper()
	st, err := db.Prepare(clauses...)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// planFresh compiles the clauses outside the plan cache: one bind and one
// plan, as on a cache miss.
func planFresh(t *testing.T, db *DB, clauses ...Clause) *Stmt {
	t.Helper()
	s, err := compileSpec(modeQuery, clauses)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.bind(s)
	if err != nil {
		t.Fatal(err)
	}
	st, err := db.plan(b)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// pinPrepare prepares the clauses on the snapshot's database and binds the
// statement to the snapshot, the one way to pin a statement.
func pinPrepare(snap *Snapshot, clauses ...Clause) (*Stmt, error) {
	st, err := snap.db.Prepare(clauses...)
	if err != nil {
		return nil, err
	}
	return snap.Bind(st)
}

// pinQuery runs the clauses against the snapshot: pinPrepare, then Exec.
func pinQuery(snap *Snapshot, clauses ...Clause) (*Result, error) {
	st, err := pinPrepare(snap, clauses...)
	if err != nil {
		return nil, err
	}
	return st.Exec()
}

// groceryFlat evaluates the grocery join over db's current rows with the
// flat oracle, as rows of decoded cells keyed by attribute.
func groceryFlat(t *testing.T, db *DB) []map[string]string {
	t.Helper()
	q := &core.Query{Equalities: []core.Equality{{A: "Orders.item", B: "Store.item"}, {A: "Store.location", B: "Disp.location"}}}
	for _, name := range []string{"Orders", "Store", "Disp"} {
		r, _ := db.Relation(name)
		q.Relations = append(q.Relations, r)
	}
	flat, err := rdb.Evaluate(q, rdb.Options{Materialize: true})
	if err != nil {
		t.Fatal(err)
	}
	strs := db.Dict().Snapshot()
	var out []map[string]string
	for _, tp := range flat.Relation.Tuples {
		row := map[string]string{}
		for i, v := range tp {
			row[string(flat.Relation.Schema[i])] = strs[v]
		}
		out = append(out, row)
	}
	return out
}

// checkDispatchers compares the grouped aggregate (count, count distinct
// item per dispatcher) and the ordered DISTINCT top-k over (dispatcher,
// item) with the flat oracle.
func checkDispatchers(t *testing.T, db *DB, agg, top *Stmt, offset, limit int) {
	t.Helper()
	flat := groceryFlat(t, db)
	type group struct {
		n     int64
		items map[string]bool
	}
	groups := map[string]*group{}
	pairs := map[[2]string]bool{}
	for _, row := range flat {
		g := groups[row["Disp.dispatcher"]]
		if g == nil {
			g = &group{items: map[string]bool{}}
			groups[row["Disp.dispatcher"]] = g
		}
		g.n++
		g.items[row["Orders.item"]] = true
		pairs[[2]string{row["Disp.dispatcher"], row["Orders.item"]}] = true
	}

	ar, err := agg.ExecAgg()
	if err != nil {
		t.Fatal(err)
	}
	if ar.Len() != len(groups) {
		t.Fatalf("aggregate has %d groups, oracle %d", ar.Len(), len(groups))
	}
	for i := 0; i < ar.Len(); i++ {
		g := groups[ar.Key(i)[0]]
		if g == nil || ar.Value(i, 0) != g.n || ar.Value(i, 1) != int64(len(g.items)) {
			t.Fatalf("aggregate row %v: count %d, distinct %d; oracle %+v", ar.Key(i), ar.Value(i, 0), ar.Value(i, 1), g)
		}
	}

	var want []string
	for p := range pairs {
		want = append(want, p[0]+"|"+p[1])
	}
	sort.Slice(want, func(i, j int) bool {
		a, b := strings.SplitN(want[i], "|", 2), strings.SplitN(want[j], "|", 2)
		if a[0] != b[0] {
			return a[0] > b[0] // dispatcher descending
		}
		return a[1] < b[1]
	})
	want = want[min(offset, len(want)):]
	want = want[:min(limit, len(want))]
	res, err := top.Exec()
	if err != nil {
		t.Fatal(err)
	}
	col := map[string]int{}
	for i, a := range res.Schema() {
		col[a] = i
	}
	var got []string
	for _, row := range res.Rows(0) {
		got = append(got, row[col["Disp.dispatcher"]]+"|"+row[col["Orders.item"]])
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("top-k rows %v, oracle %v", got, want)
	}
}

// sameHolder reports whether two statements of one database execute over
// one data holder, and fails the test unless Explain says the same: equal
// holder numbers exactly when the holder is one, equal key hashes exactly
// when the keys are.
func sameHolder(t *testing.T, a, b *Stmt) bool {
	t.Helper()
	ea, eb := a.Explain(), b.Explain()
	same, sameKey := a.src == b.src, a.src.key == b.src.key
	if (ea.Holder == eb.Holder) != same || (ea.HolderKey == eb.HolderKey) != sameKey {
		t.Fatalf("Explain: holders #%d, #%d keyed %s, %s; want shared %v, same key %v",
			ea.Holder, eb.Holder, ea.HolderKey, eb.HolderKey, same, sameKey)
	}
	return same
}

// TestStmtsShareData: statements that compile to the same inputs, baked
// selections and f-tree share one data holder — a write is folded and the
// encoding rebuilt once for all of them — and nothing else shares: not a
// statement with another baked constant, other inputs or another tree.
// Statements pinned to one snapshot share that snapshot's holder, never a
// live statement's or another snapshot's. The registry keeps no holder, and
// no database, alive.
func TestStmtsShareData(t *testing.T) {
	db := grocery(t)
	// Shaped like the write_refresh dashboards: grouping lifts the tree to
	// Disp.dispatcher, and ordering by it reorders the same tree to stream.
	agg := mustPrepare(t, db, withJoin(GroupBy("Disp.dispatcher"), Agg(Count, ""), Agg(CountDistinct, "Orders.item"))...)
	top := mustPrepare(t, db, withJoin(Project("Disp.dispatcher", "Orders.item"), Distinct(),
		OrderBy(Desc("Disp.dispatcher"), Asc("Orders.item")), Offset(1), Limit(4))...)
	if agg.FTree() != top.FTree() {
		t.Fatalf("the two shapes compile to different trees:\n%s\n%s", agg.FTree(), top.FTree())
	}
	if !sameHolder(t, agg, top) {
		t.Fatal("statements with one f-tree over the same inputs do not share a data holder")
	}
	checkDispatchers(t, db, agg, top, 1, 4)

	before := agg.src.data.Load()
	db.MustInsert("Orders", "04", "Melon")
	if _, err := agg.ExecAgg(); err != nil {
		t.Fatal(err)
	}
	d := agg.src.data.Load()
	if d == before || d.enc == nil {
		t.Fatal("the write was not folded into a rebuilt encoding")
	}
	enc := d.enc
	if _, err := top.Exec(); err != nil {
		t.Fatal(err)
	}
	if top.src.data.Load() != d || d.enc != enc {
		t.Fatal("the second statement refreshed or rebuilt what the first already had")
	}
	checkDispatchers(t, db, agg, top, 1, 4)

	t.Run("no sharing", func(t *testing.T) {
		// Statements compiled outside the plan cache, which would otherwise
		// hand a permutation of milk's query milk itself.
		milk := planFresh(t, db, withJoin(Cmp("Orders.item", EQ, "Milk"))...)
		for name, clauses := range map[string][]Clause{
			"another baked constant": withJoin(Cmp("Orders.item", EQ, "Cheese")),
			"no baked constant":      withJoin(),
			"inputs in another order": {From("Disp", "Store", "Orders"), Eq("Orders.item", "Store.item"),
				Eq("Store.location", "Disp.location"), Cmp("Orders.item", EQ, "Milk")},
			"other inputs": {From("Orders", "Store"), Eq("Orders.item", "Store.item"), Cmp("Orders.item", EQ, "Milk")},
			"another tree": withJoin(Cmp("Orders.item", EQ, "Milk"), OrderBy("Orders.oid")),
		} {
			st := planFresh(t, db, clauses...)
			if name == "another tree" && st.FTree() == milk.FTree() {
				t.Fatalf("%s: ORDER BY Orders.oid kept the tree", name)
			}
			if sameHolder(t, st, milk) {
				t.Errorf("%s: shares a data holder", name)
			}
		}
		if st := planFresh(t, db, withJoin(Cmp("Orders.item", EQ, "Milk"))...); !sameHolder(t, st, milk) {
			t.Error("the same baked constant does not share a data holder")
		}
		if st := planFresh(t, grocery(t), withJoin(Cmp("Orders.item", EQ, "Milk"))...); st.src == milk.src {
			t.Error("statements of two databases share a data holder")
		}

		snap := db.Snapshot()
		defer snap.Close()
		pinned, err := pinPrepare(snap, withJoin(Cmp("Orders.item", EQ, "Milk"))...)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := snap.Bind(milk)
		if err != nil {
			t.Fatal(err)
		}
		if !sameHolder(t, pinned, bound) {
			t.Error("statements pinned to one snapshot with one key do not share a data holder")
		}
		if sameHolder(t, bound, milk) {
			t.Error("a pinned statement shares a live statement's data holder")
		}
		snap2 := db.Snapshot()
		defer snap2.Close()
		other, err := snap2.Bind(milk)
		if err != nil {
			t.Fatal(err)
		}
		if sameHolder(t, other, bound) || sameHolder(t, other, milk) {
			t.Error("statements pinned to two snapshots share a data holder")
		}
	})

	t.Run("lifetime", func(t *testing.T) {
		db := grocery(t)
		reg := db.srcs
		execDropped(t, db)
		// The plan cache keeps the dropped statements until other shapes
		// evict them; the evicting shapes leave one holder of their own.
		evictAll(t, db)
		eventually(t, "the registry still holds evicted statements' holders", func() bool { return registered(reg) == 1 })
		// Cached statements keep their holder for as long as the plan cache
		// keeps them, and the cache lives as long as the database: dropping
		// the database must free all three. A holder cleanup that reached
		// the database would root it.
		if _, err := db.Query(withJoin()...); err != nil {
			t.Fatal(err)
		}
		if _, err := db.QueryAgg(withJoin(Agg(Count, ""))...); err != nil {
			t.Fatal(err)
		}
		if n := registered(reg) - 1; n != 1 {
			t.Fatalf("two cached statements of one tree register %d holders, want 1", n)
		}
		dbRef := weak.Make(db)
		db = nil
		eventually(t, "a dropped database is still reachable", func() bool { return dbRef.Value() == nil })
		eventually(t, "the registry outlives the holders of a dropped database", func() bool { return registered(reg) == 0 })
	})
}

// TestUnstreamableOrderSharesHolder: an ORDER BY that no arrangement of the
// planned tree streams leaves the tree as planned, so the ordered statement
// shares its unordered twin's holder and sorts at retrieval.
func TestUnstreamableOrderSharesHolder(t *testing.T) {
	db := New()
	db.MustCreate("R", "a")
	db.MustCreate("S", "c", "d")
	for _, a := range []int{2, 1} {
		db.MustInsert("R", a)
	}
	for _, cd := range [][2]int{{1, 5}, {1, 3}, {2, 4}} {
		db.MustInsert("S", cd[0], cd[1])
	}
	plain := mustPrepare(t, db, From("R", "S"))
	// S.d lies below S.c, so R.a cannot come between them in pre-order.
	st := mustPrepare(t, db, From("R", "S"), OrderBy("S.c", "R.a", "S.d"))
	if o := st.Explain().Order; o != OrderIncompatible {
		t.Fatalf("S.c, R.a, S.d over a tree with S.d below S.c: order %s", o)
	}
	if st.FTree() != plain.FTree() {
		t.Fatalf("the ordered statement left the planned tree:\n%s\nwant\n%s", st.FTree(), plain.FTree())
	}
	if st.src != plain.src {
		t.Fatal("an unstreamable ordered statement has its own data holder")
	}
	res, err := st.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if res.OrderStreamed() {
		t.Fatal("retrieval claims to stream an unstreamable order")
	}
	col := map[string]int{}
	for i, a := range res.Schema() {
		col[a] = i
	}
	var got []string
	for _, row := range res.Rows(0) {
		got = append(got, row[col["S.c"]]+","+row[col["R.a"]]+","+row[col["S.d"]])
	}
	want := []string{"1,1,3", "1,1,5", "1,2,3", "1,2,5", "2,1,4", "2,2,4"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("rows (S.c,R.a,S.d) = %v, want %v", got, want)
	}
}

// execDropped prepares and executes statements on db that nothing but the
// plan cache keeps once it returns: two sharing one holder, one with a
// holder of its own.
func execDropped(t *testing.T, db *DB) {
	t.Helper()
	var sts []*Stmt
	for _, clauses := range [][]Clause{withJoin(), withJoin(Project("Orders.oid")), withJoin(Cmp("Orders.item", EQ, "Milk"))} {
		st := mustPrepare(t, db, clauses...)
		if _, err := st.Exec(); err != nil {
			t.Fatal(err)
		}
		sts = append(sts, st)
	}
	// Alive until counted: a collection in between would run a holder's
	// cleanup and drop its key early.
	if n := registered(db.srcs); n != 2 {
		t.Fatalf("registry holds %d keys, want 2", n)
	}
	runtime.KeepAlive(sts)
}

// registered reports the number of keys in the registry, those of dead
// holders whose cleanup has not run yet included.
func registered(r *srcRegistry) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.m)
}

// eventually runs GC until cond holds, failing after a few seconds: cleanups
// and weak pointers are settled by the collector, not at a call.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestSharedStmtsConcurrentWrites: two statements sharing one data holder
// execute from goroutines while a writer inserts; every reply reflects at
// least the writes finished before its execution started and at most those
// begun before it returned, and Explain, reading the holder as it changes,
// reports one holder for both. Run under -race.
func TestSharedStmtsConcurrentWrites(t *testing.T) {
	const (
		keys   = 8
		perKey = 4 // S tuples per join key
		writes = 120
	)
	db := New()
	db.MustCreate("R", "a", "b")
	db.MustCreate("S", "b", "c")
	for i := 0; i < keys*perKey; i++ {
		db.MustInsert("S", i%keys, i)
	}
	join := []Clause{From("R", "S"), Eq("R.b", "S.b")}
	count := mustPrepare(t, db, append(join[:len(join):len(join)], Agg(Count, ""))...)
	rows := mustPrepare(t, db, append(join[:len(join):len(join)], Project("R.a"))...)
	if count.Explain().Holder != rows.Explain().Holder {
		t.Fatal("the count and the projection do not share a data holder")
	}

	var started, done atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := done.Load()
				var got int64
				if g == 0 {
					res, err := count.ExecAgg()
					if err != nil {
						errs <- err
						return
					}
					if res.Len() > 0 {
						got = res.Value(0, 0) / perKey
					}
				} else {
					res, err := rows.Exec()
					if err != nil {
						errs <- err
						return
					}
					got = res.Count()
				}
				if hi := started.Load(); got < lo || got > hi {
					errs <- fmt.Errorf("statement %d saw %d writes, want within [%d, %d]", g, got, lo, hi)
					return
				}
				// Explain reads the shared holder while the writes publish
				// to it; the database was opened from no file, so nothing
				// is adopted.
				if ec, er := count.Explain(), rows.Explain(); ec.Holder != er.Holder || ec.Adopted || er.Adopted {
					errs <- fmt.Errorf("statement %d: explained holders #%d and #%d, adopted %v, %v", g, ec.Holder, er.Holder, ec.Adopted, er.Adopted)
					return
				}
			}
		}(g)
	}
	for i := 0; i < writes; i++ {
		started.Add(1)
		db.MustInsert("R", i, i%keys)
		done.Add(1)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res, err := rows.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != writes {
		t.Fatalf("after the writer: %d rows, want %d", res.Count(), writes)
	}
}

// TestSnapshotBindsShareHolder: every bind of one statement to one snapshot
// gets the snapshot's holder for its key, so the first Exec loads the
// pinned cut and builds its encoding once and every later bind, from any
// goroutine, reuses both; a write after the pin changes nothing they read.
// Close drops the snapshot's holders. Run under -race.
func TestSnapshotBindsShareHolder(t *testing.T) {
	db := grocery(t)
	st := mustPrepare(t, db, withJoin()...)
	snap := db.Snapshot()
	defer snap.Close()
	bind := func() *Stmt {
		b, err := snap.Bind(st)
		if err != nil {
			t.Error(err)
		}
		return b
	}
	a, b := bind(), bind()
	if a.src != b.src || a.src == st.src {
		t.Fatal("two binds of one statement to one snapshot do not share the snapshot's holder")
	}
	res, err := a.Exec()
	if err != nil {
		t.Fatal(err)
	}
	want := res.Table(-1)
	d := a.src.data.Load()
	if d == nil || d.enc == nil {
		t.Fatal("the first Exec left no data or no encoding in the holder")
	}
	enc := d.enc
	db.MustInsert("Orders", "05", "Cheese")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, st := range []*Stmt{b, bind()} {
				res, err := st.Exec()
				if err != nil {
					t.Error(err)
					return
				}
				if got := res.Table(-1); got != want {
					t.Errorf("a later bind read another cut:\n%s\nwant:\n%s", got, want)
				}
			}
		}()
	}
	wg.Wait()
	if b.src.data.Load() != d || d.enc != enc {
		t.Fatal("a later bind reloaded the inputs or rebuilt the encoding")
	}
	snap.Close()
	snap.mu.Lock()
	n := len(snap.srcs)
	snap.mu.Unlock()
	if n != 0 {
		t.Fatalf("a closed snapshot still registers %d holders", n)
	}
	if _, err := snap.Bind(st); err != errSnapshotClosed {
		t.Fatalf("bind on a closed snapshot: %v", err)
	}
}
