package fdb

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/store"
)

// bakedStrings are string selections that are baked into their input
// although the dictionary alone cannot settle them at Prepare: a range, and
// equalities and inequalities on a string with no code.
var bakedStrings = map[string]Clause{
	"range":             Cmp("P.name", LT, "cherry"),
	"code-less eq":      Cmp("P.name", EQ, "durian"),
	"code-less ne":      Cmp("P.name", NE, "durian"),
	"code-less range":   Cmp("P.name", GE, "coconut"),
	"known eq, control": Cmp("P.name", EQ, "pear"),
}

// TestBakedStringSelectionsMemoise: a statement without a Param memoises
// its encoding whatever its string constants are, and statements with the
// same inputs, constants and tree share one data holder.
func TestBakedStringSelectionsMemoise(t *testing.T) {
	db := scrambledDB(t)
	for name, sel := range bakedStrings {
		st := mustPrepare(t, db, From("P"), sel)
		if !st.memoises() {
			t.Errorf("%s: a statement without a Param does not memoise", name)
		}
		if again := mustPrepare(t, db, From("P"), sel); again.src != st.src {
			t.Errorf("%s: two prepares of one statement hold two data holders", name)
		}
		if fresh := planFresh(t, db, From("P"), sel, Project("P.name")); fresh.src != st.src {
			t.Errorf("%s: a projection of the statement, planned outside the cache, holds another data holder", name)
		}
		r1, err := st.Exec()
		if err != nil {
			t.Fatal(err)
		}
		r2, err := st.Exec()
		if err != nil {
			t.Fatal(err)
		}
		if r1.Enc() != r2.Enc() {
			t.Errorf("%s: the second execution rebuilt the encoding", name)
		}
	}
	if got := db.Dict().Len(); got != 12 {
		t.Fatalf("preparing and executing grew the dictionary to %d codes, want 12", got)
	}
}

// TestBakedStringFoldsWrites: a write is folded into the baked input of
// every statement it concerns and seen by the next execution, including a
// string the dictionary first met in that write, while executions run
// concurrently with the writes.
func TestBakedStringFoldsWrites(t *testing.T) {
	db := scrambledDB(t)
	ltClauses := []Clause{From("P"), Cmp("P.name", LT, "cherry"), OrderBy("P.name", "P.id")}
	eqClauses := []Clause{From("P"), Cmp("P.name", EQ, "durian"), OrderBy("P.name", "P.id")}
	lt, eq := mustPrepare(t, db, ltClauses...), mustPrepare(t, db, eqClauses...)
	for _, st := range []*Stmt{lt, eq} {
		if _, err := st.Exec(); err != nil {
			t.Fatal(err)
		}
	}
	before := lt.src.data.Load()
	db.MustInsert("P", "i7", "blueberry") // new code, in range
	db.MustInsert("P", "i8", "durian")    // the constant gets its code
	db.MustInsert("P", "i9", "zucchini")  // new code, out of range
	res, err := lt.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if got := names(t, res); got != "apple banana blueberry" {
		t.Errorf("name < cherry after the writes: %q, want \"apple banana blueberry\"", got)
	}
	after := lt.src.data.Load()
	if after == before || len(after.rels[0].Tuples) != len(before.rels[0].Tuples)+1 {
		t.Errorf("the range statement's input went from %d to %d tuples, want one more", len(before.rels[0].Tuples), len(after.rels[0].Tuples))
	}
	if res, err = eq.Exec(); err != nil {
		t.Fatal(err)
	}
	if got := names(t, res); got != "durian" {
		t.Errorf("name = durian after its insert: %q", got)
	}

	// Concurrent readers fold the same writes as they land. Each reader
	// sends at most one error, so errs never blocks.
	const readers = 3
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, st := range []*Stmt{lt, eq} {
					if _, err := st.Exec(); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		db.MustInsert("P", fmt.Sprintf("j%d", i), fmt.Sprintf("b%02d", i))
		if i%4 == 0 {
			db.MustInsert("P", fmt.Sprintf("k%d", i), "durian")
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for name, st := range map[string]*Stmt{"range": lt, "eq": eq} {
		clauses := ltClauses
		if st == eq {
			clauses = eqClauses
		}
		got, err := st.Exec()
		if err != nil {
			t.Fatal(err)
		}
		// The reference: the same statement over a fresh copy of the rows;
		// the order keys cover every column, so codes cannot reorder it.
		cold := New()
		cold.MustCreate("P", "id", "name")
		r, _ := db.Relation("P")
		for _, tp := range r.Tuples {
			cold.MustInsert("P", db.Dict().Decode(tp[0]), db.Dict().Decode(tp[1]))
		}
		want, err := cold.Query(clauses...)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := fmt.Sprint(got.Rows(0)), fmt.Sprint(want.Rows(0)); g != w || got.Count() != want.Count() {
			t.Errorf("%s: refreshed statement diverged from a cold one:\n%s\nwant\n%s", name, g, w)
		}
	}
}

// TestBakedStringSaveSnapshotAdopts: SaveSnapshot carries one arena for
// each baked string selection's holder, and the same statements prepared on
// the reopened database adopt it.
func TestBakedStringSaveSnapshotAdopts(t *testing.T) {
	db := scrambledDB(t)
	sels := []Clause{bakedStrings["range"], bakedStrings["code-less eq"], bakedStrings["code-less ne"]}
	var live []*Stmt
	for _, sel := range sels {
		st := mustPrepare(t, db, From("P"), sel)
		if _, err := st.Exec(); err != nil {
			t.Fatal(err)
		}
		live = append(live, st)
	}
	path := filepath.Join(t.TempDir(), "strs.fdb")
	if err := db.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(live)
	f, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Encs) != len(live) {
		t.Fatalf("the snapshot carries %d arenas for %d holders", len(f.Encs), len(live))
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, sel := range sels {
		st2 := mustPrepare(t, db2, From("P"), sel)
		if _, ok := db2.adopted[st2.src.key]; !ok {
			t.Fatalf("statement %d: no arena under its holder key %q", i, st2.src.key)
		}
		res, err := st2.Exec()
		if err != nil {
			t.Fatal(err)
		}
		// An empty arena aliases nothing, so only a non-empty one shows.
		if !res.Empty() && !st2.Explain().Adopted {
			t.Errorf("statement %d rebuilt instead of adopting the carried arena", i)
		}
	}
}

// TestBakedStringKeyOutlivesInsert: a string equality keys its holder by
// the string's spelling, so a statement prepared before the string reached
// the dictionary keys alike after it did — one planned after the insert
// shares its holder — and a database reopened from a file saved after the
// insert adopts its arena.
func TestBakedStringKeyOutlivesInsert(t *testing.T) {
	db := scrambledDB(t)
	sel := bakedStrings["code-less eq"]
	st := mustPrepare(t, db, From("P"), sel)
	db.MustInsert("P", "i7", "durian")
	if _, err := st.Exec(); err != nil {
		t.Fatal(err)
	}
	if fresh := planFresh(t, db, From("P"), sel); fresh.src != st.src {
		t.Fatalf("planned after the insert, the statement keys %q, not %q", fresh.src.key, st.src.key)
	}
	path := filepath.Join(t.TempDir(), "durian.fdb")
	if err := db.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(st)
	db2, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st2 := mustPrepare(t, db2, From("P"), sel)
	res, err := st2.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if got := names(t, res); got != "durian" {
		t.Fatalf("reopened: %q, want durian", got)
	}
	if !st2.Explain().Adopted {
		t.Fatalf("reopened, the statement keys %q and rebuilt instead of adopting", st2.src.key)
	}
}
