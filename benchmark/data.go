package main

import (
	"fmt"
	"math/rand"

	fdb "repro"
	"repro/internal/relation"
)

// The paper's Figure 1 grocery retailer, generated here so that later engine
// changes (wire.SeedRetailer, RetailerQueries) cannot shift the benchmark's
// inputs. Integer ids start far above the dictionary's code range: the
// engine decodes any value below the dictionary length as a string.
const (
	nItems       = 50
	nLocations   = 40
	nDispatchers = 120
	nSuppliers   = 60

	itemBase = 1000
	oidBase  = 1_000_000
	// Write workloads insert orders from oidPrivate upwards, one disjoint
	// range per client, so no generated row is ever touched.
	oidPrivate = 9_000_000
)

// table is one generated relation: interface rows for the engine's loader.
type table struct {
	name  string
	attrs []string
	rows  [][]interface{}
}

// dataset is the five generated relations plus the seed-dependent id orders
// the workloads draw bindings from.
type dataset struct {
	scale  int
	tables []table
	// itemByRank maps a Zipf rank to an item id: which items are popular is
	// the seed's choice.
	itemByRank []int64
}

func itemID(k int) int64        { return int64(itemBase + k) }
func locName(k int) string      { return fmt.Sprintf("loc-%02d", k) }
func dispName(k int) string     { return fmt.Sprintf("disp-%03d", k) }
func supplierName(k int) string { return fmt.Sprintf("sup-%02d", k) }

// generate builds the dataset for one seed. Sizes are 500/200/100/100/60 x
// scale rows. Degrees are fixed and only the pairing is random, so the join
// sizes — and with them the cost of every statement — do not depend on the
// seed: every item has the same number of orders, stocking locations and
// producers, every location the same number of dispatchers (within one),
// every supplier the same number of served locations.
func generate(seed int64, scale int) *dataset {
	if scale < 1 || scale > 10 {
		panic(fmt.Sprintf("scale %d outside 1..10 (Stock holds %d of %d pairs at scale 10)", scale, 2000, nItems*nLocations))
	}
	rng := rand.New(rand.NewSource(seed))
	ds := &dataset{scale: scale}
	for _, k := range rng.Perm(nItems) {
		ds.itemByRank = append(ds.itemByRank, itemID(k))
	}

	orders := table{name: "Orders", attrs: []string{"oid", "item"}}
	for i := 0; i < 500*scale; i += nItems {
		for j, k := range rng.Perm(nItems) {
			orders.rows = append(orders.rows, []interface{}{int64(oidBase + i + j), itemID(k)})
		}
	}

	// pick returns n distinct indices below of.
	pick := func(n, of int) []int { return rng.Perm(of)[:n] }

	stock := table{name: "Stock", attrs: []string{"location", "item"}}
	for k := 0; k < nItems; k++ {
		for _, l := range pick(4*scale, nLocations) {
			stock.rows = append(stock.rows, []interface{}{locName(l), itemID(k)})
		}
	}
	disp := table{name: "Disp", attrs: []string{"dispatcher", "location"}}
	for l := 0; l < nLocations; l++ {
		n := (100*scale*(l+1))/nLocations - (100*scale*l)/nLocations
		for _, d := range pick(n, nDispatchers) {
			disp.rows = append(disp.rows, []interface{}{dispName(d), locName(l)})
		}
	}
	produce := table{name: "Produce", attrs: []string{"supplier", "item"}}
	for k := 0; k < nItems; k++ {
		for _, s := range pick(2*scale, nSuppliers) {
			produce.rows = append(produce.rows, []interface{}{supplierName(s), itemID(k)})
		}
	}
	serve := table{name: "Serve", attrs: []string{"supplier", "location"}}
	for s := 0; s < nSuppliers; s++ {
		for _, l := range pick(scale, nLocations) {
			serve.rows = append(serve.rows, []interface{}{supplierName(s), locName(l)})
		}
	}
	// Shuffle every table: load order must not hand the engine sorted input.
	ds.tables = []table{orders, stock, disp, produce, serve}
	for _, t := range ds.tables {
		rows := t.rows
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	}
	return ds
}

// load creates and fills the generated relations in a fresh database.
func (ds *dataset) load() (*fdb.DB, error) {
	db := fdb.New()
	for _, t := range ds.tables {
		if err := db.Create(t.name, t.attrs...); err != nil {
			return nil, err
		}
		if err := db.InsertBatch(t.name, t.rows); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// flat returns the table's rows as an engine relation for the oracle,
// encoding strings with the codes the loaded database assigned.
func (t table) flat(dict *relation.Dict) *relation.Relation {
	sch := make(relation.Schema, len(t.attrs))
	for i, a := range t.attrs {
		sch[i] = relation.Attribute(t.name + "." + a)
	}
	r := relation.New(t.name, sch)
	for _, row := range t.rows {
		tup := make(relation.Tuple, len(row))
		for i, v := range row {
			switch x := v.(type) {
			case int64:
				tup[i] = relation.Value(x)
			case string:
				code, ok := dict.Lookup(x)
				if !ok {
					panic("generated string " + x + " missing from the dictionary")
				}
				tup[i] = code
			}
		}
		r.AppendTuple(tup)
	}
	return r
}
