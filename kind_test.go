package fdb

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/frep"
	"repro/internal/relation"
	"repro/internal/store"
)

// wantKindError fails unless err is a *KindError on attr refusing a got
// operand where want was expected.
func wantKindError(t *testing.T, what string, err error, attr string, want, got relation.Kind) {
	t.Helper()
	var kerr *KindError
	if !errors.As(err, &kerr) || kerr.Attr != attr || kerr.Want != want || kerr.Got != got {
		t.Fatalf("%s: err = %v, want a *KindError on %s (%s, got %s)", what, err, attr, want, got)
	}
}

// TestIntegersStayIntegers: a string written into one relation changes
// nothing about another relation's integers. They render as numbers, sort
// as numbers, and an equality between them and the strings is refused.
func TestIntegersStayIntegers(t *testing.T) {
	db := New()
	db.MustCreate("R", "a")
	db.MustInsert("R", 0)
	db.MustInsert("R", 1)
	db.MustCreate("S", "b")
	db.MustInsert("S", "Milk")

	res := mustQuery(t, func() (*Result, error) { return db.Query(From("R")) })
	if got, want := res.Rows(-1), [][]string{{"0"}, {"1"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("R renders as %v, want %v", got, want)
	}
	res = mustQuery(t, func() (*Result, error) { return db.Query(From("R"), OrderBy(Desc("R.a"))) })
	if got, want := res.Rows(-1), [][]string{{"1"}, {"0"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("R ordered by R.a descending: %v, want %v", got, want)
	}
	_, err := db.Prepare(From("R", "S"), Eq("R.a", "S.b"))
	wantKindError(t, "Eq(R.a, S.b)", err, "R.a", relation.KindInt, relation.KindStr)
	if less := db.orderLess([]frep.OrderKey{{Attr: "R.a"}}); less != nil {
		t.Fatal("an integer key has a comparator while the dictionary holds a string")
	}
}

// TestWrongKindRefusedMintsNothing: every way of meeting an attribute with
// a value of the other kind is refused with a *KindError naming the
// attribute and both kinds, and none of them grows the dictionary.
func TestWrongKindRefusedMintsNothing(t *testing.T) {
	db := New()
	db.MustCreate("R", "k", "s")
	db.MustInsert("R", 1, "pear")
	db.MustCreate("T", "x.y")
	db.MustInsert("T", 7)
	tsv := filepath.Join(t.TempDir(), "t.tsv")
	if err := os.WriteFile(tsv, []byte("T.x\ty\nMelon\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := db.Prepare(From("R"), Cmp("R.k", EQ, Param("k")))
	if err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, func() (*Result, error) { return db.Query(From("R")) })
	other := mustQuery(t, func() (*Result, error) { return db.Query(From("T")) })
	n := db.Dict().Len()
	for _, c := range []struct {
		name      string
		err       func() error
		attr      string
		want, got relation.Kind
	}{
		{"Insert", func() error { return db.Insert("R", "two", "apple") }, "R.k", relation.KindInt, relation.KindStr},
		{"InsertBatch", func() error {
			return db.InsertBatch("R", [][]interface{}{{2, "apple"}, {3, 4}})
		}, "R.s", relation.KindStr, relation.KindInt},
		{"Upsert", func() error { return db.Upsert("R", 1, 1, 5) }, "R.s", relation.KindStr, relation.KindInt},
		{"LoadTSV", func() error { _, err := db.LoadTSV(tsv); return err }, "T.x.y", relation.KindInt, relation.KindStr},
		{"constant", func() error { _, err := db.Prepare(From("R"), Cmp("R.k", LT, "plum")); return err }, "R.k", relation.KindInt, relation.KindStr},
		{"Where constant", func() error { _, err := res.Where(Cmp("R.s", EQ, 3)); return err }, "R.s", relation.KindStr, relation.KindInt},
		{"Eq", func() error { _, err := db.Prepare(From("R"), Eq("R.k", "R.s")); return err }, "R.k", relation.KindInt, relation.KindStr},
		{"Join Eq", func() error { _, err := res.Join(other, Eq("R.s", "T.x.y")); return err }, "R.s", relation.KindStr, relation.KindInt},
		{"Exec parameter", func() error { _, err := st.Exec(Arg("k", "one")); return err }, "R.k", relation.KindInt, relation.KindStr},
	} {
		wantKindError(t, c.name, c.err(), c.attr, c.want, c.got)
		if got := db.Dict().Len(); got != n {
			t.Fatalf("%s: the refusal left %d strings in the dictionary, want %d", c.name, got, n)
		}
	}
	if _, ok := db.Relation("T.x"); ok {
		t.Fatal("the refused TSV file was loaded")
	}
	got := mustQuery(t, func() (*Result, error) { return st.Exec(Arg("k", 1)) }).Rows(0)
	if want := [][]string{{"1", "pear"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after the refusals: %v, want %v", got, want)
	}
}

// TestKindsCheckedAtExec: a kind the attribute did not have at Prepare is
// checked by Exec, through the same check, once the relation is written.
func TestKindsCheckedAtExec(t *testing.T) {
	db := New()
	db.MustCreate("R", "a")
	db.MustCreate("S", "b")
	join, err := db.Prepare(From("R", "S"), Eq("R.a", "S.b"))
	if err != nil {
		t.Fatal(err)
	}
	sel, err := db.Prepare(From("R"), Cmp("R.a", GE, "m"))
	if err != nil {
		t.Fatal(err)
	}
	db.MustInsert("R", 0)
	db.MustInsert("S", "Milk")
	_, err = join.Exec()
	wantKindError(t, "Eq at Exec", err, "R.a", relation.KindInt, relation.KindStr)
	_, err = sel.Exec()
	wantKindError(t, "constant at Exec", err, "R.a", relation.KindInt, relation.KindStr)
}

// TestAggregatesOverStrings: SUM, MIN and MAX over a string attribute are
// refused at Prepare; COUNT and COUNT DISTINCT count its values.
func TestAggregatesOverStrings(t *testing.T) {
	db := New()
	db.MustCreate("R", "k", "s")
	db.MustInsert("R", 1, "pear")
	db.MustInsert("R", 2, "apple")
	for _, fn := range []AggFn{Sum, Min, Max} {
		if _, err := db.Prepare(From("R"), Agg(fn, "R.s")); err == nil {
			t.Fatalf("%s over a string attribute prepared", fn)
		}
	}
	ar, err := db.QueryAgg(From("R"), Agg(Count, ""), Agg(CountDistinct, "R.s"), Agg(Max, "R.k"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ar.Rows(0), [][]string{{"2", "2", "2"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("count, count distinct and max: %v, want %v", got, want)
	}
}

// TestKindFixedOnce: the first int write and the first string write into
// one fresh relation race; exactly one fixes the kind, and the other is
// refused and mints nothing.
func TestKindFixedOnce(t *testing.T) {
	for i := 0; i < 50; i++ {
		db := New()
		db.MustCreate("R", "a")
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for w, v := range []interface{}{1, "one"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[w] = db.Insert("R", v)
			}()
		}
		wg.Wait()
		if (errs[0] == nil) == (errs[1] == nil) {
			t.Fatalf("round %d: int write err %v, string write err %v; want exactly one refused", i, errs[0], errs[1])
		}
		loser, want, got, rows, strs := 1, relation.KindInt, relation.KindStr, [][]string{{"1"}}, 0
		if errs[0] != nil {
			loser, want, got, rows, strs = 0, relation.KindStr, relation.KindInt, [][]string{{"one"}}, 1
		}
		wantKindError(t, "the losing write", errs[loser], "R.a", want, got)
		if n := db.Dict().Len(); n != strs {
			t.Fatalf("round %d: %d strings in the dictionary, want %d", i, n, strs)
		}
		res := mustQuery(t, func() (*Result, error) { return db.Query(From("R")) })
		if r := res.Rows(0); !reflect.DeepEqual(r, rows) {
			t.Fatalf("round %d: R holds %v, want %v", i, r, rows)
		}
	}
}

// TestSnapshotKeepsKinds: a saved database reopens with its kinds, so its
// integers render as numbers under a dictionary past them, and a write of
// the other kind is still refused; a relation never written has no kind.
func TestSnapshotKeepsKinds(t *testing.T) {
	db := New()
	db.MustCreate("R", "a", "b")
	db.MustInsert("R", 0, "x")
	db.MustInsert("R", 1, "y")
	db.MustCreate("E", "e")
	path := filepath.Join(t.TempDir(), "k.fdb")
	if err := db.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	back, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := kindsOf(back.kinds(), relation.Schema{"R.a", "R.b", "E.e"}), kindsOf(db.kinds(), relation.Schema{"R.a", "R.b", "E.e"}); !reflect.DeepEqual(got, want) || want[2] != relation.KindNone {
		t.Fatalf("reopened kinds %v, saved %v", got, want)
	}
	res := mustQuery(t, func() (*Result, error) { return back.Query(From("R")) })
	if got, want := res.Rows(0), [][]string{{"0", "x"}, {"1", "y"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened R renders as %v, want %v", got, want)
	}
	wantKindError(t, "insert into the reopened R", back.Insert("R", "z", "w"), "R.a", relation.KindInt, relation.KindStr)
	if err := back.Insert("E", "first"); err != nil {
		t.Fatalf("the first write into the reopened empty relation: %v", err)
	}
	// A file that records no kind for a relation's values holds integers.
	r := relation.New("S", relation.Schema{"S.a"})
	r.Append(0)
	bare := filepath.Join(t.TempDir(), "bare.fdb")
	if err := store.Write(bare, &store.Set{Ver: 1, Rels: []store.Relation{{Ver: 1, Rel: r}}}); err != nil {
		t.Fatal(err)
	}
	if back, err = OpenSnapshotFile(bare); err != nil {
		t.Fatal(err)
	}
	wantKindError(t, "a string into the kindless file's values", back.Insert("S", "Milk"), "S.a", relation.KindInt, relation.KindStr)
}
