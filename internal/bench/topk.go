package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	fdb "repro"
	"repro/internal/core"
	"repro/internal/frep"
	"repro/internal/gen"
	"repro/internal/relation"
)

// topK is Experiment 9: ordered top-k retrieval (ORDER BY + LIMIT k through
// the public API) against the flat baseline that enumerates every tuple,
// sorts, and cuts. The retailer workload orders by (item desc, oid) — the
// join's item class, order-compatible, so the engine streams straight off
// the compressed representation and visits O(k) entries; the chain workload
// (100 tuples per relation, values from [1,20]) orders by both endpoints,
// which for length >= 4 no equally-cheap tree can stream, so the engine's
// bounded size-k heap carries the leg. Both engine sequences are checked
// against their baseline before timings are reported.
func topK(cfg Config, retailer, chain []int, k int) (Table, error) {
	t := Table{Header: []string{
		"Experiment 9: ordered top-k (ORDER BY + LIMIT k) vs flat enumerate-sort-cut on the same built result",
		"retailer streams off the order-compatible f-tree (O(k) entries); chain falls back to the bounded size-k heap",
		"workload scale k flat_tuples frep_size build_ms topk_ms flat_ms speedup mode",
	}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	point := func(name string, scale int, query func() *core.Query, keys []frep.OrderKey, stream bool) error {
		// flat_tuples frep_size build_ms topk_ms flat_ms
		m, err := mean(cfg.Runs, func() ([][]float64, error) {
			row, err := topKPoint(query(), keys, k, stream)
			if err != nil {
				err = fmt.Errorf("bench: exp9 %s/%d: %w", name, scale, err)
			}
			return one(row, err)
		})
		if err != nil {
			return err
		}
		r := m[0]
		mode := "heap"
		if stream {
			mode = "stream"
		}
		t.add("%s %d %d %d %d %.3f %.3f %.3f %.1f %s", name, scale, k,
			int64(r[0]), int64(r[1]), r[2], r[3], r[4], ratio(r[4], r[3]), mode)
		return nil
	}
	for _, scale := range trim(cfg, retailer) {
		keys := []frep.OrderKey{{Attr: "Orders.item", Desc: true}, {Attr: "Orders.oid"}}
		if err := point("retailer", scale, func() *core.Query { return gen.Retailer(rng, scale) }, keys, true); err != nil {
			return t, err
		}
	}
	for _, n := range trim(cfg, chain) {
		keys := []frep.OrderKey{{Attr: "R1.A"}, {Attr: relation.Attribute(fmt.Sprintf("R%d.B", n))}}
		if err := point("chain", n, func() *core.Query { return gen.ChainQuery(rng, n, 100, 20) }, keys, false); err != nil {
			return t, err
		}
	}
	return t, nil
}

// topKPoint runs one measurement: prepare the ordered and plain statements,
// build once each, then time engine top-k retrieval against the flat
// sort-then-cut baseline and sequence-check them.
func topKPoint(q *core.Query, keys []frep.OrderKey, k int, wantStream bool) ([]float64, error) {
	db, join, err := openDB(q)
	if err != nil {
		return nil, err
	}
	ks := make([]interface{}, len(keys))
	for i, key := range keys {
		if key.Desc {
			ks[i] = fdb.Desc(string(key.Attr))
		} else {
			ks[i] = fdb.Asc(string(key.Attr))
		}
	}
	st, err := db.Prepare(with(join, fdb.OrderBy(ks...), fdb.Limit(k))...)
	if err != nil {
		return nil, err
	}
	if got := st.Explain().Order; got.Streams() != wantStream {
		return nil, fmt.Errorf("order %s, want streaming %v (the experiment's legs depend on it)", got, wantStream)
	}
	stPlain, err := db.Prepare(join...)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	ordered, err := st.Exec()
	if err != nil {
		return nil, err
	}
	buildMS := ms(start)
	plain, err := stPlain.Exec()
	if err != nil {
		return nil, err
	}

	start = time.Now()
	got := drain(ordered.Iter())
	topkMS := ms(start)

	// Baseline tie-breaks must reproduce the engine's deterministic order
	// (keys, then the ordered result's columns ascending), so the key list is
	// extended with the engine schema — making the comparator independent of
	// the baseline's own column order.
	ordSchema, plainSchema := schemaOf(ordered), schemaOf(plain)
	fullKeys := append([]frep.OrderKey(nil), keys...)
	for _, a := range ordSchema {
		fullKeys = append(fullKeys, frep.OrderKey{Attr: a})
	}
	start = time.Now()
	base := drain(plain.Iter())
	cmp := frep.TupleCompare(plainSchema, fullKeys, nil)
	sort.SliceStable(base, func(i, j int) bool { return cmp(base[i], base[j]) < 0 })
	if len(base) > k {
		base = base[:k]
	}
	flatMS := ms(start)

	base = project(base, plainSchema, ordSchema)
	if len(got) != len(base) {
		return nil, fmt.Errorf("engine %d tuples, baseline %d", len(got), len(base))
	}
	for i := range got {
		if got[i].Compare(base[i]) != 0 {
			return nil, fmt.Errorf("sequence diverges at %d: %v vs %v", i, got[i], base[i])
		}
	}
	return []float64{float64(plain.Count()), float64(plain.Size()), buildMS, topkMS, flatMS}, nil
}

// schemaOf returns a result's schema as engine attributes.
func schemaOf(res *fdb.Result) relation.Schema {
	var schema relation.Schema
	for _, a := range res.Schema() {
		schema = append(schema, relation.Attribute(a))
	}
	return schema
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
