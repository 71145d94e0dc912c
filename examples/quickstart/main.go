// Quickstart: the paper's running example (Figures 1 and 2, Examples 1 and
// 2) through the public API — load the grocery database, evaluate Q1 and Q2
// factorised, then join the two factorised results on item and location.
package main

import (
	"fmt"

	"repro"
)

func main() {
	db := fdb.New()
	db.MustCreate("Orders", "oid", "item")
	for _, r := range [][2]string{{"01", "Milk"}, {"01", "Cheese"}, {"02", "Melon"}, {"03", "Cheese"}, {"03", "Melon"}} {
		db.MustInsert("Orders", r[0], r[1])
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

	// Q1: orders with items, pickup locations and available dispatchers.
	q1, err := db.Query(
		fdb.From("Orders", "Store", "Disp"),
		fdb.Eq("Orders.item", "Store.item"),
		fdb.Eq("Store.location", "Disp.location"))
	must(err)
	fmt.Println("Q1 = Orders ⋈item Store ⋈location Disp")
	fmt.Printf("  tuples: %d, flat data elements: %d, factorised singletons: %d\n",
		q1.Count(), q1.FlatSize(), q1.Size())
	fmt.Println("  f-tree:")
	indent(q1.FTree())
	fmt.Println("  factorisation:")
	fmt.Println("   ", q1)

	// Q2: suppliers with their items and served locations. s(Q2) = 1.
	q2, err := db.Query(
		fdb.From("Produce", "Serve"),
		fdb.Eq("Produce.supplier", "Serve.supplier"))
	must(err)
	fmt.Println("\nQ2 = Produce ⋈supplier Serve")
	fmt.Printf("  tuples: %d, factorised singletons: %d\n", q2.Count(), q2.Size())
	fmt.Println("  factorisation:")
	fmt.Println("   ", q2)

	// Example 2: join the two *factorised* results on item and location —
	// the engine restructures Q2's factorisation (swap) before merging.
	joined, err := q1.Join(q2,
		fdb.Eq("Orders.item", "Produce.item"),
		fdb.Eq("Store.location", "Serve.location"))
	must(err)
	fmt.Println("\nQ1 ⋈item,location Q2: possible suppliers of ordered items")
	fmt.Printf("  tuples: %d, flat data elements: %d, factorised singletons: %d\n",
		joined.Count(), joined.FlatSize(), joined.Size())
	fmt.Println("  result rows:")
	fmt.Print(joined.Table(6))

	// Prepared statements: compile Q1 with a parameterised item selection
	// once, then execute it per constant — the f-tree search is paid at
	// Prepare time, the input dedup and sorting by the first Exec.
	stmt, err := db.Prepare(
		fdb.From("Orders", "Store", "Disp"),
		fdb.Eq("Orders.item", "Store.item"),
		fdb.Eq("Store.location", "Disp.location"),
		fdb.Cmp("Orders.item", fdb.EQ, fdb.Param("item")))
	must(err)
	fmt.Printf("\nprepared Q1(item): s(T)=%.0f, params %v\n", stmt.Explain().Cost, stmt.Params())
	for _, item := range []string{"Milk", "Cheese", "Melon"} {
		r, err := stmt.Exec(fdb.Arg("item", item))
		must(err)
		fmt.Printf("  item=%-6s -> %d tuples in %d singletons\n", item, r.Count(), r.Size())
	}

	// Ad-hoc queries reuse plans too: db.Query is Prepare then Exec, and
	// Prepare goes through an LRU plan cache keyed by the query's canonical
	// fingerprint. The counts below include the prepared Q1(item) above,
	// which is a cache entry (and a miss) of its own.
	for i := 0; i < 3; i++ {
		_, err := db.Query(
			fdb.From("Produce", "Serve"),
			fdb.Eq("Produce.supplier", "Serve.supplier"))
		must(err)
	}
	stats := db.CacheStats()
	fmt.Printf("\nplan cache after repeating Q2: %d hits, %d misses, %d entries\n",
		stats.Hits, stats.Misses, stats.Entries)
}

func indent(s string) {
	fmt.Print("    " + s[:len(s)-1])
	fmt.Println()
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
