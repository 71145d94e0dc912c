// Retailer: a larger synthetic many-to-many workload in the spirit of the
// paper's motivation — orders, stock and dispatch availability with heavy
// many-to-many relationships — showing orders-of-magnitude compression of
// the factorised result and sustained compactness across a pipeline of
// follow-up queries on factorised data (the claim of Experiments 3 and 4).
package main

import (
	"fmt"
	"math/rand"

	"repro"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	db := fdb.New()

	const (
		items     = 50
		orders    = 2000
		locations = 40
		stock     = 800 // (location, item) availability pairs
		disps     = 300 // (dispatcher, location) pairs
	)
	db.MustCreate("Orders", "oid", "item")
	for i := 0; i < orders; i++ {
		db.MustInsert("Orders", i, rng.Intn(items))
	}
	db.MustCreate("Stock", "location", "item")
	for i := 0; i < stock; i++ {
		db.MustInsert("Stock", rng.Intn(locations), rng.Intn(items))
	}
	db.MustCreate("Disp", "dispatcher", "location")
	for i := 0; i < disps; i++ {
		db.MustInsert("Disp", i%120, rng.Intn(locations))
	}

	res, err := db.Query(
		fdb.From("Orders", "Stock", "Disp"),
		fdb.Eq("Orders.item", "Stock.item"),
		fdb.Eq("Stock.location", "Disp.location"))
	must(err)
	fmt.Println("orders ⋈ stock ⋈ dispatchers (many-to-many):")
	fmt.Printf("  result tuples:          %d\n", res.Count())
	fmt.Printf("  flat data elements:     %d\n", res.FlatSize())
	fmt.Printf("  factorised singletons:  %d\n", res.Size())
	fmt.Printf("  compression factor:     %.1fx\n", float64(res.FlatSize())/float64(res.Size()))
	fmt.Println("  f-tree:")
	fmt.Print(res.FTree())

	// Follow-up queries run directly on the factorised result.
	local, err := res.Where(fdb.Cmp("Stock.location", fdb.LT, 10))
	must(err)
	fmt.Println("\nσ location<10 on the factorised result:")
	fmt.Printf("  tuples %d, singletons %d (flat would be %d)\n",
		local.Count(), local.Size(), local.FlatSize())

	pairs, err := local.Where(fdb.Project("Orders.oid", "Disp.dispatcher"))
	must(err)
	fmt.Println("\nπ oid,dispatcher of that:")
	fmt.Printf("  tuples %d, singletons %d\n", pairs.Count(), pairs.Size())

	// Selection joining two attribute classes on factorised data: which
	// orders could be dispatched by a dispatcher whose id equals the item
	// id (an artificial equality to exercise the f-plan optimiser).
	eq, err := res.Where(fdb.Eq("Orders.item", "Disp.dispatcher"))
	must(err)
	fmt.Println("\nσ item=dispatcher on the factorised result (restructuring f-plan):")
	fmt.Printf("  tuples %d, singletons %d\n", eq.Count(), eq.Size())

	// Serving traffic: the per-item availability lookup is one prepared
	// statement executed with a bound parameter per request — the join is
	// compiled (f-tree search, dedup, sort) exactly once.
	perItem, err := db.Prepare(
		fdb.From("Orders", "Stock", "Disp"),
		fdb.Eq("Orders.item", "Stock.item"),
		fdb.Eq("Stock.location", "Disp.location"),
		fdb.Cmp("Orders.item", fdb.EQ, fdb.Param("item")))
	must(err)
	fmt.Println("\nprepared per-item lookup (compiled once, executed per request):")
	var served int64
	for item := 0; item < 8; item++ {
		r, err := perItem.Exec(fdb.Arg("item", item))
		must(err)
		served += r.Count()
	}
	fmt.Printf("  8 requests served, %d tuples total, params %v\n", served, perItem.Params())
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
