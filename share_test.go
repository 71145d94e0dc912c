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
	"repro/internal/relation"
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

// TestStmtsShareData: statements that compile to the same inputs, baked
// selections and f-tree share one data holder — a write is folded and the
// encoding rebuilt once for all of them — and nothing else shares: not a
// statement with another baked constant, other inputs or another tree, and
// never a pinned statement. The registry keeps no holder, and no database,
// alive.
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
	if agg.src != top.src {
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
		milk := mustPrepare(t, db, withJoin(Cmp("Orders.item", EQ, "Milk"))...)
		for name, clauses := range map[string][]Clause{
			"another baked constant": withJoin(Cmp("Orders.item", EQ, "Cheese")),
			"no baked constant":      withJoin(),
			"inputs in another order": {From("Disp", "Store", "Orders"), Eq("Orders.item", "Store.item"),
				Eq("Store.location", "Disp.location"), Cmp("Orders.item", EQ, "Milk")},
			"other inputs": {From("Orders", "Store"), Eq("Orders.item", "Store.item"), Cmp("Orders.item", EQ, "Milk")},
			"another tree": withJoin(Cmp("Orders.item", EQ, "Milk"), OrderBy("Orders.oid")),
		} {
			st := mustPrepare(t, db, clauses...)
			if name == "another tree" && st.FTree() == milk.FTree() {
				t.Fatalf("%s: ORDER BY Orders.oid kept the tree", name)
			}
			if st.src == milk.src {
				t.Errorf("%s: shares a data holder", name)
			}
		}
		if st := mustPrepare(t, db, withJoin(Cmp("Orders.item", EQ, "Milk"))...); st.src != milk.src {
			t.Error("the same baked constant does not share a data holder")
		}
		if st := mustPrepare(t, grocery(t), withJoin(Cmp("Orders.item", EQ, "Milk"))...); st.src == milk.src {
			t.Error("statements of two databases share a data holder")
		}

		snap := db.Snapshot()
		defer snap.Close()
		pinned, err := snap.Prepare(withJoin(Cmp("Orders.item", EQ, "Milk"))...)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := snap.Bind(milk)
		if err != nil {
			t.Fatal(err)
		}
		if pinned.src == milk.src || bound.src == milk.src || pinned.src == bound.src {
			t.Error("a pinned statement shares a data holder")
		}
	})

	t.Run("lifetime", func(t *testing.T) {
		db := grocery(t)
		reg := db.srcs
		execDropped(t, db)
		eventually(t, "the registry still holds dropped statements' holders", func() bool { return registered(reg) == 0 })
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
		if registered(reg) != 1 {
			t.Fatalf("two cached statements of one tree register %d holders, want 1", registered(reg))
		}
		dbRef := weak.Make(db)
		db = nil
		eventually(t, "a dropped database is still reachable", func() bool { return dbRef.Value() == nil })
		eventually(t, "the registry outlives the holders of a dropped database", func() bool { return registered(reg) == 0 })
	})
}

// execDropped prepares and executes statements on db that nothing keeps
// once it returns: two sharing one holder, one with a holder of its own.
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
// begun before it returned. Run under -race.
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
	if count.src != rows.src {
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

// TestFilterTuplesAllocFree: a delta every tuple of which passes the baked
// filter is returned as is, without allocating; one with a failing tuple is
// copied, leaving the shared delta untouched.
func TestFilterTuplesAllocFree(t *testing.T) {
	ts := []relation.Tuple{{1, 2}, {3, 4}, {5, 6}}
	all := func(relation.Tuple) bool { return true }
	if n := testing.AllocsPerRun(100, func() { filterTuples(ts, all) }); n != 0 {
		t.Fatalf("filterTuples allocates %.0f times when every tuple passes", n)
	}
	odd := func(tp relation.Tuple) bool { return tp[0] != 3 }
	got := filterTuples(ts, odd)
	if fmt.Sprint(got) != "[[1 2] [5 6]]" || fmt.Sprint(ts) != "[[1 2] [3 4] [5 6]]" {
		t.Fatalf("filtered %v, delta left %v", got, ts)
	}
	if got := filterTuples(ts, func(relation.Tuple) bool { return false }); len(got) != 0 {
		t.Fatalf("filtered %v, want nothing", got)
	}
}
