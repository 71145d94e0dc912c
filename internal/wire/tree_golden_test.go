package wire

import (
	"testing"

	fdb "repro"
)

// goldenRetailerTrees is each retailer read-pool statement's f-tree
// (Stmt.FTree), plan-time streamability and Stmt.Explain rendering over
// SeedRetailer(db, 42, 1), in RetailerQueries order. explain is the
// rendering up to the f-tree, which it ends with. The benchmark's workloads
// prepare exactly these statements, so a planner or order-resolution change
// that moves one of them shows here first.
var goldenRetailerTrees = []struct {
	name       string
	streamable bool
	tree       string
	explain    string
}{
	{"item_point", true, `Orders.oid
  Disp.location,Stock.location
    Disp.dispatcher
    Orders.item,Stock.item
`, `s(T)=2.00: greedy tree kept, search found nothing cheaper
consts: none
order: streams on the adopted order-compatible tree
memoises: no
input Orders: baked none; per-Exec Orders.item = $item; path order Orders.oid,Orders.item
input Stock: baked none; per-Exec none; path order Stock.location,Stock.item
input Disp: baked none; per-Exec none; path order Disp.location,Disp.dispatcher
holder #1 (key fcd0a671), adopted: no
f-tree:
`},
	{"loc_range", true, `Disp.location,Stock.location
  Orders.item,Stock.item
    Orders.oid
  Disp.dispatcher
`, `s(T)=2.00: greedy tree kept, search found nothing cheaper
consts: none
order: streams on the adopted order-compatible tree
memoises: no
input Orders: baked none; per-Exec none; path order Orders.item,Orders.oid
input Stock: baked none; per-Exec Stock.location <= $loc; path order Stock.location,Stock.item
input Disp: baked none; per-Exec none; path order Disp.location,Disp.dispatcher
holder #2 (key d348f177), adopted: no
f-tree:
`},
	{"top_dispatch", true, `Disp.dispatcher
  Orders.item,Stock.item
    Orders.oid
    Disp.location,Stock.location
`, `s(T)=2.00: greedy tree kept, search found nothing cheaper
consts: none
order: streams on the adopted order-compatible tree
memoises: yes
input Orders: baked none; per-Exec none; path order Orders.item,Orders.oid
input Stock: baked none; per-Exec none; path order Stock.item,Stock.location
input Disp: baked none; per-Exec none; path order Disp.dispatcher,Disp.location
holder #3 (key 6ec7f1d5), adopted: no
f-tree:
`},
	{"count_by_disp", false, `Disp.dispatcher
  Orders.item,Stock.item
    Orders.oid
    Disp.location,Stock.location
`, `s(T)=2.00: greedy tree kept, search found nothing cheaper
consts: none
order: no keys
memoises: yes
input Orders: baked none; per-Exec none; path order Orders.item,Orders.oid
input Stock: baked none; per-Exec none; path order Stock.item,Stock.location
input Disp: baked none; per-Exec none; path order Disp.dispatcher,Disp.location
holder #3 (key 6ec7f1d5), adopted: no
f-tree:
`},
	{"agg_item_band", false, `Disp.location,Stock.location
  Disp.dispatcher
  Orders.item,Stock.item
    Orders.oid
`, `s(T)=2.00: greedy tree kept, search found nothing cheaper
consts: none
order: no keys
memoises: no
input Orders: baked none; per-Exec Orders.item >= $lo, Orders.item <= $hi; path order Orders.item,Orders.oid
input Stock: baked none; per-Exec none; path order Stock.location,Stock.item
input Disp: baked none; per-Exec none; path order Disp.location,Disp.dispatcher
holder #4 (key 51e12147), adopted: no
f-tree:
`},
	{"total_count", false, `Orders.item,Stock.item
  Orders.oid
  Disp.location,Stock.location
    Disp.dispatcher
`, `s(T)=2.00: greedy tree kept, search found nothing cheaper
consts: none
order: no keys
memoises: yes
input Orders: baked none; per-Exec none; path order Orders.item,Orders.oid
input Stock: baked none; per-Exec none; path order Stock.item,Stock.location
input Disp: baked none; per-Exec none; path order Disp.location,Disp.dispatcher
holder #5 (key d712c1a1), adopted: no
f-tree:
`},
}

// TestRetailerTreesGolden pins the f-tree, streamability and Explain
// rendering of every statement of the retailer read pool.
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
		e := st.Explain()
		if got := e.Order.Streams(); got != g.streamable {
			t.Errorf("%s: order %s, want streaming %v", q.Name, e.Order, g.streamable)
		}
		if got := e.String(); got != g.explain+g.tree {
			t.Errorf("%s: Explain moved:\n got:\n%s\nwant:\n%s", q.Name, got, g.explain+g.tree)
		}
	}
}
