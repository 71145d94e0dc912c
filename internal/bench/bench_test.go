package bench

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	fdb "repro"
	"repro/internal/core"
	"repro/internal/fplan"
	"repro/internal/frep"
	"repro/internal/gen"
	"repro/internal/opt"
)

// smoke is the configuration the table-driven tests run under: one run of
// the first point of every sweep, flat baselines on a short leash.
var smoke = Config{Seed: 1, Runs: 1, Timeout: 100 * time.Millisecond, smoke: true}

// TestExperiments runs every entry of the table at its smoke grid. The
// parity prechecks and bars inside the experiments are the assertions; here
// the table's shape is checked on top: column names, at least one row, rows
// equally wide.
func TestExperiments(t *testing.T) {
	for _, e := range Experiments {
		t.Run(fmt.Sprintf("%d/%s", e.ID, e.Title), func(t *testing.T) {
			tab, err := e.Run(smoke)
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Header) == 0 || len(tab.Rows) == 0 {
				t.Fatalf("empty table: %d header lines, %d rows", len(tab.Header), len(tab.Rows))
			}
			for _, row := range tab.Rows {
				if len(row) == 0 || len(row) != len(tab.Rows[0]) {
					t.Fatalf("ragged table: row %v beside row %v", row, tab.Rows[0])
				}
			}
		})
	}
}

// TestMissedBarFailsRun injects bars no engine can meet: the experiments
// must come back with an error (which fdbench turns into a non-zero exit),
// not with a table.
func TestMissedBarFailsRun(t *testing.T) {
	// The speedup bar applies from scale 4 on.
	if _, err := setAlgebra(smoke, []int{4}, 1e9); err == nil {
		t.Error("experiment 14 passed a 1e9x speedup bar")
	}
}

// TestFoldCap: above the cap the fold leg must be skipped, not enumerated
// forever, and the factorised leg still reports.
func TestFoldCap(t *testing.T) {
	tab, err := aggregation(smoke, nil, []int{6}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	row := tab.Rows[0]
	if row[len(row)-1] != "true" || row[4] == "0" {
		t.Fatalf("fold should have been skipped with groups reported: %v", row)
	}
}

// TestGroceryJoin runs the paper's running example end to end below the API
// (Examples 1 and 2): Q1 and Q2 factorised, their product joined on item and
// location by a full-search f-plan, and the result compared with the flat
// evaluation of the five-way join.
func TestGroceryJoin(t *testing.T) {
	rels, _ := gen.Grocery()
	full := &core.Query{
		Relations: rels,
		Equalities: []core.Equality{
			{A: "o_item", B: "s_item"},
			{A: "s_location", B: "d_location"},
			{A: "p_supplier", B: "v_supplier"},
			{A: "o_item", B: "p_item"},
			{A: "s_location", B: "v_location"},
		},
	}
	want, err := full.EvaluateFlat()
	if err != nil {
		t.Fatal(err)
	}
	build := func(q *core.Query) *frep.Enc {
		fr, err := BuildRep(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}
	f1 := build(&core.Query{Relations: rels[:3], Equalities: full.Equalities[:2]})
	f2 := build(&core.Query{Relations: rels[3:], Equalities: full.Equalities[2:3]})
	prod, err := fplan.ProductEnc(f1, f2)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := opt.ExhaustivePlan(prod.Tree, []opt.Condition{
		{A: "o_item", B: "p_item"},
		{A: "s_location", B: "v_location"},
	}, opt.PlanSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	joined, err := plan.Plan.ExecuteEnc(context.Background(), prod)
	if err != nil {
		t.Fatal(err)
	}
	if f1.Size() == 0 || f2.Size() == 0 || joined.Size() == 0 {
		t.Fatalf("degenerate sizes: %d %d %d", f1.Size(), f2.Size(), joined.Size())
	}
	if got := joined.Relation("got").Project(want.Schema); !got.Equal(want) {
		t.Fatalf("factorised grocery join differs from relational result (%d vs %d tuples)",
			got.Cardinality(), want.Cardinality())
	}
}

// retailerDB is the scaled retailer workload behind the micro-benchmarks.
func retailerDB(b *testing.B, rng *rand.Rand, scale int) (*fdb.DB, []fdb.Clause) {
	b.Helper()
	db, join, err := openDB(gen.Retailer(rng, scale))
	if err != nil {
		b.Fatal(err)
	}
	return db, join
}

// BenchmarkTopKRetailer times the full ordered top-k query path — prepared
// Exec (build) plus streaming retrieval of the first K tuples — on the
// scale-2 retailer join.
func BenchmarkTopKRetailer(b *testing.B) {
	db, join := retailerDB(b, rand.New(rand.NewSource(1)), 2)
	st, err := db.Prepare(with(join, fdb.OrderBy(fdb.Desc("Orders.item"), "Orders.oid"), fdb.Limit(10))...)
	if err != nil {
		b.Fatal(err)
	}
	if !st.Explain().Order.Streams() {
		b.Fatal("top-k leg must stream")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := st.Exec()
		if err != nil {
			b.Fatal(err)
		}
		if n := len(drain(res.Iter())); n != 10 {
			b.Fatalf("retrieved %d tuples, want 10", n)
		}
	}
}

// BenchmarkInsertBatch measures committing a 100-row batch into the delta
// store (one version bump, no statement refresh).
func BenchmarkInsertBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	db, _ := retailerDB(b, rng, 4)
	next := 500*4 + 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := make([][]interface{}, 100)
		for j := range batch {
			batch[j] = []interface{}{next, rng.Intn(gen.RetailerItems) + 1}
			next++
		}
		if err := db.InsertBatch("Orders", batch); err != nil {
			b.Fatal(err)
		}
	}
}
