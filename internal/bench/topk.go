package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	fdb "repro"
	"repro/internal/frep"
	"repro/internal/relation"
)

// Exp9Row is one point of Experiment 9: ordered top-k retrieval (ORDER BY +
// LIMIT k through the public API) against the flat baseline that enumerates
// every tuple, sorts, and cuts. The retailer workload orders by the join's
// item class — order-compatible, so the engine streams straight off the
// compressed representation and visits O(k) entries; the chain workload
// orders by an endpoint attribute no equally-cheap tree can stream, so the
// engine's bounded size-k heap carries the leg. Both engine sequences are
// checked against their baseline before timings are reported.
type Exp9Row struct {
	Workload string
	Scale    int
	K        int
	Tuples   int64   // flat tuples of the join result
	RepSize  int64   // singletons in the factorised result
	BuildMS  float64 // one prepared-statement Exec (build; shared by both legs)
	TopkMS   float64 // engine ordered top-k retrieval
	FlatMS   float64 // flat enumerate + sort + cut baseline
	Streamed bool    // true: structural streaming; false: bounded heap
}

// Exp9Config parameterises one Experiment 9 measurement.
type Exp9Config struct {
	Scale int
	K     int
}

// exp9Retailer builds the scaled retailer workload through the public API
// (the same shape and sizes as RetailerQuery).
func exp9Retailer(rng *rand.Rand, scale int) (*fdb.DB, []fdb.Clause) {
	const (
		items     = 50
		locations = 40
	)
	db := fdb.New()
	db.MustCreate("Orders", "oid", "item")
	for i := 0; i < 500*scale; i++ {
		db.MustInsert("Orders", i+1, rng.Intn(items)+1)
	}
	db.MustCreate("Stock", "location", "item")
	for i := 0; i < 200*scale; i++ {
		db.MustInsert("Stock", rng.Intn(locations)+1, rng.Intn(items)+1)
	}
	db.MustCreate("Disp", "dispatcher", "location")
	for i := 0; i < 100*scale; i++ {
		db.MustInsert("Disp", rng.Intn(120)+1, rng.Intn(locations)+1)
	}
	return db, []fdb.Clause{
		fdb.From("Orders", "Stock", "Disp"),
		fdb.Eq("Orders.item", "Stock.item"),
		fdb.Eq("Stock.location", "Disp.location"),
	}
}

// exp9Chain builds the chain query of Example 6 (length = scale) through the
// public API.
func exp9Chain(rng *rand.Rand, length int) (*fdb.DB, []fdb.Clause) {
	db := fdb.New()
	var from []string
	for i := 1; i <= length; i++ {
		name := fmt.Sprintf("R%d", i)
		db.MustCreate(name, "A", "B")
		for j := 0; j < 100; j++ {
			db.MustInsert(name, rng.Intn(20)+1, rng.Intn(20)+1)
		}
		from = append(from, name)
	}
	clauses := []fdb.Clause{fdb.From(from...)}
	for i := 1; i < length; i++ {
		clauses = append(clauses, fdb.Eq(fmt.Sprintf("R%d.B", i), fmt.Sprintf("R%d.A", i+1)))
	}
	return db, clauses
}

// Experiment9Retailer: ordered top-k on the retailer join by (item desc,
// oid) — the order-compatible streaming case.
func Experiment9Retailer(rng *rand.Rand, cfg Exp9Config) (Exp9Row, error) {
	db, join := exp9Retailer(rng, cfg.Scale)
	keys := []frep.OrderKey{{Attr: "Orders.item", Desc: true}, {Attr: "Orders.oid"}}
	return experiment9("retailer", cfg, db, join, keys, true)
}

// Experiment9Chain: ordered top-k on the chain join by both endpoints
// (R1.A, RL.B) — for length >= 4, every tree streaming that pair pays more
// than the optimal cost, so the bounded size-k heap answers it.
func Experiment9Chain(rng *rand.Rand, cfg Exp9Config) (Exp9Row, error) {
	db, join := exp9Chain(rng, cfg.Scale)
	keys := []frep.OrderKey{
		{Attr: "R1.A"},
		{Attr: relation.Attribute(fmt.Sprintf("R%d.B", cfg.Scale))},
	}
	return experiment9("chain", cfg, db, join, keys, false)
}

// experiment9 runs one measurement: prepare the ordered and plain
// statements, build once each, then time engine top-k retrieval against the
// flat sort-then-cut baseline and sequence-check them.
func experiment9(workload string, cfg Exp9Config, db *fdb.DB, join []fdb.Clause, keys []frep.OrderKey, wantStream bool) (Exp9Row, error) {
	row := Exp9Row{Workload: workload, Scale: cfg.Scale, K: cfg.K}
	ks := make([]interface{}, len(keys))
	for i, k := range keys {
		if k.Desc {
			ks[i] = fdb.Desc(string(k.Attr))
		} else {
			ks[i] = fdb.Asc(string(k.Attr))
		}
	}
	st, err := db.Prepare(append(join[:len(join):len(join)], fdb.OrderBy(ks...), fdb.Limit(cfg.K))...)
	if err != nil {
		return row, err
	}
	if st.OrderStreamable() != wantStream {
		return row, fmt.Errorf("bench: exp9 %s: OrderStreamable() = %v, want %v (the experiment's legs depend on it)",
			workload, st.OrderStreamable(), wantStream)
	}
	row.Streamed = st.OrderStreamable()
	stPlain, err := db.Prepare(join...)
	if err != nil {
		return row, err
	}

	start := time.Now()
	ordered, err := st.Exec()
	if err != nil {
		return row, err
	}
	row.BuildMS = ms(start)
	plain, err := stPlain.Exec()
	if err != nil {
		return row, err
	}
	row.Tuples = plain.Count()
	row.RepSize = int64(plain.Size())

	start = time.Now()
	got := drain(ordered.Iter())
	row.TopkMS = ms(start)

	// Baseline tie-breaks must reproduce the engine's deterministic order
	// (keys, then the ordered result's columns ascending), so the key list is
	// extended with the engine schema — making the comparator independent of
	// the baseline's own column order.
	var ordSchema, plainSchema relation.Schema
	for _, a := range ordered.Schema() {
		ordSchema = append(ordSchema, relation.Attribute(a))
	}
	for _, a := range plain.Schema() {
		plainSchema = append(plainSchema, relation.Attribute(a))
	}
	fullKeys := append([]frep.OrderKey(nil), keys...)
	for _, a := range ordSchema {
		fullKeys = append(fullKeys, frep.OrderKey{Attr: a})
	}
	start = time.Now()
	base := flatTopK(plain, fullKeys, cfg.K)
	row.FlatMS = ms(start)

	base = project(base, plainSchema, ordSchema)
	if len(got) != len(base) {
		return row, fmt.Errorf("bench: exp9 %s/%d: engine %d tuples, baseline %d", workload, cfg.Scale, len(got), len(base))
	}
	for i := range got {
		if got[i].Compare(base[i]) != 0 {
			return row, fmt.Errorf("bench: exp9 %s/%d: sequence diverges at %d: %v vs %v",
				workload, cfg.Scale, i, got[i], base[i])
		}
	}
	return row, nil
}

// drain collects every tuple of the iterator (cloned).
func drain(it frep.TupleIter) []relation.Tuple {
	var out []relation.Tuple
	for {
		t, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, t.Clone())
	}
}

// flatTopK is the baseline: enumerate the whole unordered result, sort flat
// with the given keys, cut k.
func flatTopK(res *fdb.Result, keys []frep.OrderKey, k int) []relation.Tuple {
	var schema relation.Schema
	for _, a := range res.Schema() {
		schema = append(schema, relation.Attribute(a))
	}
	all := drain(res.Iter())
	cmp := frep.TupleCompare(schema, keys, nil)
	sort.SliceStable(all, func(i, j int) bool { return cmp(all[i], all[j]) < 0 })
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// project maps tuples into the target schema's column order, so legs with
// differently-shaped trees compare the same logical rows.
func project(tuples []relation.Tuple, from, to relation.Schema) []relation.Tuple {
	idx := make([]int, len(to))
	for i, a := range to {
		idx[i] = from.Index(a)
	}
	out := make([]relation.Tuple, len(tuples))
	for i, t := range tuples {
		nt := make(relation.Tuple, len(idx))
		for j, c := range idx {
			nt[j] = t[c]
		}
		out[i] = nt
	}
	return out
}
