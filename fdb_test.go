package fdb

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/frep"
	"repro/internal/rdb"
	"repro/internal/relation"
)

// grocery loads Figure 1 through the public API.
func grocery(t *testing.T) *DB {
	t.Helper()
	return newGrocery(false)
}

// groceryNumbered is grocery with integer order ids (1 for "01"), for tests
// that compare Orders.oid with integers or sum it.
func groceryNumbered(t *testing.T) *DB {
	t.Helper()
	return newGrocery(true)
}

func newGrocery(numbered bool) *DB {
	db := New()
	db.MustCreate("Orders", "oid", "item")
	for _, r := range [][2]string{{"01", "Milk"}, {"01", "Cheese"}, {"02", "Melon"}, {"03", "Cheese"}, {"03", "Melon"}} {
		var oid interface{} = r[0]
		if numbered {
			oid, _ = strconv.Atoi(r[0])
		}
		db.MustInsert("Orders", oid, r[1])
	}
	db.MustCreate("Store", "location", "item")
	for _, r := range [][2]string{{"Istanbul", "Milk"}, {"Istanbul", "Cheese"}, {"Istanbul", "Melon"},
		{"Izmir", "Milk"}, {"Antalya", "Milk"}, {"Antalya", "Cheese"}} {
		db.MustInsert("Store", r[0], r[1])
	}
	db.MustCreate("Disp", "dispatcher", "location")
	for _, r := range [][2]string{{"Adnan", "Istanbul"}, {"Adnan", "Izmir"}, {"Yasemin", "Istanbul"}, {"Volkan", "Antalya"}} {
		db.MustInsert("Disp", r[0], r[1])
	}
	db.MustCreate("Produce", "supplier", "item")
	for _, r := range [][2]string{{"Guney", "Milk"}, {"Guney", "Cheese"}, {"Dikici", "Milk"}, {"Byzantium", "Melon"}} {
		db.MustInsert("Produce", r[0], r[1])
	}
	db.MustCreate("Serve", "supplier", "location")
	for _, r := range [][2]string{{"Guney", "Antalya"}, {"Dikici", "Istanbul"}, {"Dikici", "Izmir"},
		{"Dikici", "Antalya"}, {"Byzantium", "Istanbul"}} {
		db.MustInsert("Serve", r[0], r[1])
	}
	return db
}

func q1(t *testing.T, db *DB) *Result {
	t.Helper()
	res, err := db.Query(
		From("Orders", "Store", "Disp"),
		Eq("Orders.item", "Store.item"),
		Eq("Store.location", "Disp.location"))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// q2 is Example 2's Q2 = Produce ⋈ Serve.
func q2(t *testing.T, db *DB) *Result {
	t.Helper()
	res, err := db.Query(From("Produce", "Serve"), Eq("Produce.supplier", "Serve.supplier"))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestQ1ThroughPublicAPI(t *testing.T) {
	db := grocery(t)
	res := q1(t, db)
	if res.Count() != 14 {
		t.Fatalf("Q1 count = %d, want 14", res.Count())
	}
	// 6 attributes (classes keep both sides of each equality).
	if res.FlatSize() != 14*int64(len(res.Schema())) {
		t.Fatalf("FlatSize inconsistent: %d", res.FlatSize())
	}
	if res.Size() >= int(res.FlatSize()) {
		t.Fatalf("factorised size %d not smaller than flat %d", res.Size(), res.FlatSize())
	}
	rows := res.Rows(0)
	if len(rows) != 14 {
		t.Fatalf("enumerated %d rows, want 14", len(rows))
	}
	if !strings.Contains(res.String(), "Milk") {
		t.Fatal("rendering lost dictionary decoding")
	}
	if res.FTree() == "" {
		t.Fatal("empty f-tree rendering")
	}
}

// TestResultStringGolden pins the rendering of representations in the
// paper's notation byte for byte: the Figure 1 example with and without
// dictionary decoding, the empty result, and a forest of three roots with a
// constant node and hidden class members (which still print — rendering
// shows what the columns hold).
func TestResultStringGolden(t *testing.T) {
	db := grocery(t)
	res := q1(t, db)
	must := func(r *Result, err error) *Result {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	adnan := must(res.Where(Cmp("Disp.dispatcher", EQ, "Adnan")))
	proj := must(adnan.Where(Project("Orders.oid", "Orders.item", "Disp.dispatcher", "Disp.location")))
	forest := must(proj.Join(must(db.Query(From("Produce")))))
	if got, want := forest.FTree(), "Orders.item,Store.item~\n  Orders.oid\n  Disp.location,Store.location~\nDisp.dispatcher=const\nProduce.supplier\n  Produce.item\n"; got != want {
		t.Fatalf("forest fixture changed shape:\n%s", got)
	}
	const adnanRoots = "(⟨Orders.item:Milk⟩×⟨Store.item:Milk⟩×⟨Orders.oid:01⟩×(⟨Disp.location:Istanbul⟩×⟨Store.location:Istanbul⟩ ∪ ⟨Disp.location:Izmir⟩×⟨Store.location:Izmir⟩) ∪ ⟨Orders.item:Cheese⟩×⟨Store.item:Cheese⟩×(⟨Orders.oid:01⟩ ∪ ⟨Orders.oid:03⟩)×⟨Disp.location:Istanbul⟩×⟨Store.location:Istanbul⟩ ∪ ⟨Orders.item:Melon⟩×⟨Store.item:Melon⟩×(⟨Orders.oid:02⟩ ∪ ⟨Orders.oid:03⟩)×⟨Disp.location:Istanbul⟩×⟨Store.location:Istanbul⟩) × ⟨Disp.dispatcher:Adnan⟩"
	for _, c := range []struct{ name, got, want string }{
		{"figure 1", res.String(),
			"(⟨Orders.item:Milk⟩×⟨Store.item:Milk⟩×⟨Orders.oid:01⟩×(⟨Disp.location:Istanbul⟩×⟨Store.location:Istanbul⟩×(⟨Disp.dispatcher:Adnan⟩ ∪ ⟨Disp.dispatcher:Yasemin⟩) ∪ ⟨Disp.location:Izmir⟩×⟨Store.location:Izmir⟩×⟨Disp.dispatcher:Adnan⟩ ∪ ⟨Disp.location:Antalya⟩×⟨Store.location:Antalya⟩×⟨Disp.dispatcher:Volkan⟩) ∪ ⟨Orders.item:Cheese⟩×⟨Store.item:Cheese⟩×(⟨Orders.oid:01⟩ ∪ ⟨Orders.oid:03⟩)×(⟨Disp.location:Istanbul⟩×⟨Store.location:Istanbul⟩×(⟨Disp.dispatcher:Adnan⟩ ∪ ⟨Disp.dispatcher:Yasemin⟩) ∪ ⟨Disp.location:Antalya⟩×⟨Store.location:Antalya⟩×⟨Disp.dispatcher:Volkan⟩) ∪ ⟨Orders.item:Melon⟩×⟨Store.item:Melon⟩×(⟨Orders.oid:02⟩ ∪ ⟨Orders.oid:03⟩)×⟨Disp.location:Istanbul⟩×⟨Store.location:Istanbul⟩×(⟨Disp.dispatcher:Adnan⟩ ∪ ⟨Disp.dispatcher:Yasemin⟩))"},
		{"figure 1, undecoded", res.Enc().String(),
			"(⟨Orders.item:1⟩×⟨Store.item:1⟩×⟨Orders.oid:0⟩×(⟨Disp.location:6⟩×⟨Store.location:6⟩×(⟨Disp.dispatcher:9⟩ ∪ ⟨Disp.dispatcher:10⟩) ∪ ⟨Disp.location:7⟩×⟨Store.location:7⟩×⟨Disp.dispatcher:9⟩ ∪ ⟨Disp.location:8⟩×⟨Store.location:8⟩×⟨Disp.dispatcher:11⟩) ∪ ⟨Orders.item:2⟩×⟨Store.item:2⟩×(⟨Orders.oid:0⟩ ∪ ⟨Orders.oid:5⟩)×(⟨Disp.location:6⟩×⟨Store.location:6⟩×(⟨Disp.dispatcher:9⟩ ∪ ⟨Disp.dispatcher:10⟩) ∪ ⟨Disp.location:8⟩×⟨Store.location:8⟩×⟨Disp.dispatcher:11⟩) ∪ ⟨Orders.item:4⟩×⟨Store.item:4⟩×(⟨Orders.oid:3⟩ ∪ ⟨Orders.oid:5⟩)×⟨Disp.location:6⟩×⟨Store.location:6⟩×(⟨Disp.dispatcher:9⟩ ∪ ⟨Disp.dispatcher:10⟩))"},
		{"empty", must(res.Where(Cmp("Orders.item", EQ, "Butter"))).String(), "∅"},
		{"constant root", adnan.String(), adnanRoots},
		{"forest, constant and hidden", forest.String(),
			adnanRoots + " × (⟨Produce.supplier:Guney⟩×(⟨Produce.item:Milk⟩ ∪ ⟨Produce.item:Cheese⟩) ∪ ⟨Produce.supplier:Dikici⟩×⟨Produce.item:Milk⟩ ∪ ⟨Produce.supplier:Byzantium⟩×⟨Produce.item:Melon⟩)"},
	} {
		if c.got != c.want {
			t.Errorf("%s renders as\n%s\nwant\n%s", c.name, c.got, c.want)
		}
	}
}

func TestExample2JoinOnFactorisedResults(t *testing.T) {
	db := grocery(t)
	r1 := q1(t, db)
	r2, err := db.Query(From("Produce", "Serve"), Eq("Produce.supplier", "Serve.supplier"))
	if err != nil {
		t.Fatal(err)
	}
	// s(Q2) = 1: the factorisation is linear in the input.
	if r2.Count() != 6 {
		t.Fatalf("Q2 count = %d, want 6", r2.Count())
	}
	joined, err := r1.Join(r2,
		Eq("Orders.item", "Produce.item"),
		Eq("Store.location", "Serve.location"))
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check against a flat evaluation of the full join.
	full, err := db.Query(
		From("Orders", "Store", "Disp", "Produce", "Serve"),
		Eq("Orders.item", "Store.item"),
		Eq("Store.location", "Disp.location"),
		Eq("Produce.supplier", "Serve.supplier"),
		Eq("Orders.item", "Produce.item"),
		Eq("Store.location", "Serve.location"))
	if err != nil {
		t.Fatal(err)
	}
	if joined.Count() != full.Count() {
		t.Fatalf("factorised-join count %d != direct count %d", joined.Count(), full.Count())
	}
}

// TestJoinThenOrder finishes Example 2's Q1 ⋈ Q2 with OrderBy, Offset and
// Limit among the join's own clauses: the tuples must be the flat oracle's
// full join sorted by the retrieval comparator and clipped to the same
// window, once on keys the joined f-tree streams (its root class, then a
// child) and once on a leaf key that no sibling reordering brings to the
// front of the pre-order, which takes the heap fallback.
func TestJoinThenOrder(t *testing.T) {
	db := grocery(t)
	q := &core.Query{Equalities: []core.Equality{
		{A: "Orders.item", B: "Store.item"}, {A: "Store.location", B: "Disp.location"},
		{A: "Produce.supplier", B: "Serve.supplier"},
		{A: "Orders.item", B: "Produce.item"}, {A: "Store.location", B: "Serve.location"},
	}}
	for _, name := range []string{"Orders", "Store", "Disp", "Produce", "Serve"} {
		r, _ := db.Relation(name)
		q.Relations = append(q.Relations, r)
	}
	flat, err := rdb.Evaluate(q, rdb.Options{Materialize: true})
	if err != nil {
		t.Fatal(err)
	}
	const offset, limit = 2, 5
	for _, c := range []struct {
		name     string
		keys     []frep.OrderKey
		streamed bool
	}{
		{"streams", []frep.OrderKey{{Attr: "Orders.item", Desc: true}, {Attr: "Orders.oid"}}, true},
		{"heap fallback", []frep.OrderKey{{Attr: "Disp.dispatcher"}}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			var order []interface{}
			for _, k := range c.keys {
				order = append(order, Key{Attr: string(k.Attr), Desc: k.Desc})
			}
			res, err := q1(t, db).Join(q2(t, db),
				Eq("Orders.item", "Produce.item"), Eq("Store.location", "Serve.location"),
				OrderBy(order...), Offset(offset), Limit(limit))
			if err != nil {
				t.Fatal(err)
			}
			if res.OrderStreamed() != c.streamed {
				t.Fatalf("OrderStreamed() = %v on f-tree\n%s", res.OrderStreamed(), res.FTree())
			}
			var schema relation.Schema
			for _, a := range res.Schema() {
				schema = append(schema, relation.Attribute(a))
			}
			var want []relation.Tuple
			for _, tp := range flat.Relation.Tuples {
				row := make(relation.Tuple, len(schema))
				for i, a := range schema {
					row[i] = tp[flat.Relation.Schema.Index(a)]
				}
				want = append(want, row)
			}
			cmp := frep.TupleCompare(schema, c.keys, db.orderLess(c.keys))
			sort.Slice(want, func(i, j int) bool { return cmp(want[i], want[j]) < 0 })
			if len(want) < offset+limit {
				t.Fatalf("fixture has %d tuples, the window needs %d", len(want), offset+limit)
			}
			want = want[offset : offset+limit]
			var got []relation.Tuple
			it := res.Iter()
			for tp, ok := it.Next(); ok; tp, ok = it.Next() {
				got = append(got, tp.Clone())
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("window\n%v\nwant\n%v", got, want)
			}
		})
	}
}

func TestWhereConstAndProject(t *testing.T) {
	db := grocery(t)
	res := q1(t, db)
	milkOnly, err := res.Where(Cmp("Orders.item", EQ, "Milk"))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range milkOnly.Rows(0) {
		found := false
		for _, v := range row {
			if v == "Milk" {
				found = true
			}
		}
		if !found {
			t.Fatalf("row %v survived σ item=Milk", row)
		}
	}
	if milkOnly.Count() != 4 {
		t.Fatalf("milk rows = %d, want 4", milkOnly.Count())
	}
	proj, err := res.Where(Project("Orders.oid", "Disp.dispatcher"))
	if err != nil {
		t.Fatal(err)
	}
	if len(proj.Schema()) != 2 {
		t.Fatalf("projected schema = %v", proj.Schema())
	}
	if proj.Count() <= 0 || proj.Count() > 14 {
		t.Fatalf("projected count = %d", proj.Count())
	}
}

func TestQueryErrors(t *testing.T) {
	db := grocery(t)
	if _, err := db.Query(Eq("a", "b")); err == nil {
		t.Fatal("query without From accepted")
	}
	if _, err := db.Query(From("Ghost")); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if err := db.Create("Orders", "x"); err == nil {
		t.Fatal("duplicate relation accepted")
	}
	if err := db.Create("Empty"); err == nil {
		t.Fatal("zero-attribute relation accepted")
	}
	if err := db.Insert("Orders", "just-one"); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if err := db.Insert("Ghost", 1); err == nil {
		t.Fatal("insert into unknown relation accepted")
	}
	if err := db.Insert("Orders", 1.5, 2.5); err == nil {
		t.Fatal("float values accepted")
	}
}

func TestIntValuesAndCmp(t *testing.T) {
	db := New()
	db.MustCreate("R", "a", "b")
	for i := 0; i < 10; i++ {
		db.MustInsert("R", i, i*2)
	}
	res, err := db.Query(From("R"), Cmp("R.a", LT, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 5 {
		t.Fatalf("count = %d, want 5", res.Count())
	}
	res2, err := db.Query(From("R"), Eq("R.a", "R.b"))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Count() != 1 { // only (0,0)
		t.Fatalf("count = %d, want 1", res2.Count())
	}
}

func TestRelationsListing(t *testing.T) {
	db := grocery(t)
	names := db.Relations()
	if len(names) != 5 || names[0] != "Orders" {
		t.Fatalf("Relations() = %v", names)
	}
	if _, ok := db.Relation("Store"); !ok {
		t.Fatal("Relation(Store) missing")
	}
}

func TestEmptyResult(t *testing.T) {
	db := New()
	db.MustCreate("A", "x")
	db.MustCreate("B", "y")
	db.MustInsert("A", 1)
	db.MustInsert("B", 2)
	res, err := db.Query(From("A", "B"), Eq("A.x", "B.y"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Empty() || res.Count() != 0 || res.Size() != 0 {
		t.Fatalf("expected empty result, got count=%d", res.Count())
	}
}

func TestIterPullsAllTuples(t *testing.T) {
	db := grocery(t)
	res := q1(t, db)
	it := res.Iter()
	n := int64(0)
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		n++
	}
	if n != res.Count() {
		t.Fatalf("iterator produced %d tuples, Count() = %d", n, res.Count())
	}
}

func TestTableRendering(t *testing.T) {
	db := grocery(t)
	res := q1(t, db)
	tbl := res.Table(3)
	if !strings.Contains(tbl, "Orders.oid") || len(strings.Split(strings.TrimSpace(tbl), "\n")) != 4 {
		t.Fatalf("table rendering wrong:\n%s", tbl)
	}
}

// TestLoadTSVRefusedLeavesDict: a load refused for a taken name or a
// malformed line encodes none of its strings.
func TestLoadTSVRefusedLeavesDict(t *testing.T) {
	dir := t.TempDir()
	load := func(db *DB, name, text string) error {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := db.LoadTSV(path)
		return err
	}
	db := New()
	if err := load(db, "n.tsv", "N\tx\n0\n1\n"); err != nil {
		t.Fatal(err)
	}
	for file, text := range map[string]string{
		"dup.tsv": "N\tx\nalpha\nbeta\n",           // N is taken
		"bad.tsv": "M\tx\ty\nalpha\tbeta\ngamma\n", // line 3 has one field of two
	} {
		if load(db, file, text) == nil {
			t.Fatalf("%s loaded", file)
		}
		if n := db.Dict().Len(); n != 0 {
			t.Fatalf("refused %s left %d strings in the dictionary", file, n)
		}
	}
	res, err := db.Query(From("N"))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows(0); !reflect.DeepEqual(got, [][]string{{"0"}, {"1"}}) {
		t.Fatalf("N reads %v after refused loads, want [[0] [1]]", got)
	}
}
