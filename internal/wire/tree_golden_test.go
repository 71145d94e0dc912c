package wire

import (
	"testing"

	fdb "repro"
)

// goldenRetailerTrees is each retailer read-pool statement's f-tree
// (Stmt.FTree) and plan-time streamability over SeedRetailer(db, 42, 1),
// in RetailerQueries order. The benchmark's workloads prepare exactly these
// statements, so a planner or order-resolution change that moves one of
// them shows here first.
var goldenRetailerTrees = []struct {
	name       string
	streamable bool
	tree       string
}{
	{"item_point", true, `Orders.oid
  Disp.location,Stock.location
    Disp.dispatcher
    Orders.item,Stock.item
`},
	{"loc_range", true, `Disp.location,Stock.location
  Orders.item,Stock.item
    Orders.oid
  Disp.dispatcher
`},
	{"top_dispatch", true, `Disp.dispatcher
  Orders.item,Stock.item
    Orders.oid
    Disp.location,Stock.location
`},
	{"count_by_disp", false, `Disp.dispatcher
  Orders.item,Stock.item
    Orders.oid
    Disp.location,Stock.location
`},
	{"agg_item_band", false, `Disp.location,Stock.location
  Disp.dispatcher
  Orders.item,Stock.item
    Orders.oid
`},
	{"total_count", false, `Orders.item,Stock.item
  Orders.oid
  Disp.location,Stock.location
    Disp.dispatcher
`},
}

// TestRetailerTreesGolden pins the f-tree and streamability of every
// statement of the retailer read pool.
func TestRetailerTreesGolden(t *testing.T) {
	db := fdb.New()
	if err := SeedRetailer(db, 42, 1); err != nil {
		t.Fatal(err)
	}
	qs := RetailerQueries()
	if len(qs) != len(goldenRetailerTrees) {
		t.Fatalf("%d retailer queries, %d golden trees", len(qs), len(goldenRetailerTrees))
	}
	for i, q := range qs {
		g := goldenRetailerTrees[i]
		if q.Name != g.name {
			t.Fatalf("query %d is %s, golden has %s", i, q.Name, g.name)
		}
		cs, err := q.Spec.Clauses()
		if err != nil {
			t.Fatal(err)
		}
		st, err := db.Prepare(cs...)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if got := st.FTree(); got != g.tree {
			t.Errorf("%s: f-tree moved:\n got:\n%s\nwant:\n%s", q.Name, got, g.tree)
		}
		if got := st.OrderStreamable(); got != g.streamable {
			t.Errorf("%s: OrderStreamable = %v, want %v", q.Name, got, g.streamable)
		}
	}
}
