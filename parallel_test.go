package fdb

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fbuild"
	"repro/internal/frep"
	"repro/internal/relation"
)

// retailerDB builds a retailer-style workload big enough for the parallel
// build to split it into morsels.
func retailerDB(t *testing.T, seed int64) *DB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := New()
	db.MustCreate("Orders", "oid", "item")
	for i := 0; i < 1500; i++ {
		db.MustInsert("Orders", i, rng.Intn(50))
	}
	db.MustCreate("Stock", "location", "item")
	for i := 0; i < 600; i++ {
		db.MustInsert("Stock", rng.Intn(40), rng.Intn(50))
	}
	db.MustCreate("Disp", "dispatcher", "location")
	for i := 0; i < 250; i++ {
		db.MustInsert("Disp", i%120, rng.Intn(40))
	}
	return db
}

var retailerJoin = []Clause{
	From("Orders", "Stock", "Disp"),
	Eq("Orders.item", "Stock.item"),
	Eq("Stock.location", "Disp.location"),
}

// TestExecMatchesSerialBuild: Exec builds and ExecAgg aggregates with
// Parallelism() workers — morsel-parallel whenever GOMAXPROCS > 1 — and must
// produce exactly the encoding the serial fbuild.BuildEnc builds on the same
// tree, and the rows the serial Aggregate folds from it.
func TestExecMatchesSerialBuild(t *testing.T) {
	db := retailerDB(t, 1)
	serialBuild := func(st *Stmt) *frep.Enc {
		t.Helper()
		var rels []*relation.Relation
		for _, name := range []string{"Orders", "Stock", "Disp"} {
			r, _ := db.Relation(name)
			rels = append(rels, r.Clone())
		}
		enc, err := fbuild.BuildEnc(rels, st.tree.Clone())
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	st, err := db.Prepare(retailerJoin...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() == 0 || !res.Enc().Equal(serialBuild(st)) {
		t.Fatalf("P=%d: Exec's encoding differs from the serial build", db.Parallelism())
	}
	aggSt, err := db.Prepare(append(retailerJoin[:3:3],
		GroupBy("Stock.location"), Agg(Count, ""), Agg(Sum, "Orders.oid"), Agg(CountDistinct, "Orders.item"))...)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := aggSt.ExecAgg()
	if err != nil {
		t.Fatal(err)
	}
	want, err := serialBuild(aggSt).Aggregate(aggSt.groupBy, aggSt.aggs)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !reflect.DeepEqual(agg.rows, want) {
		t.Fatalf("P=%d: ExecAgg's rows differ from the serial Aggregate", db.Parallelism())
	}
}
