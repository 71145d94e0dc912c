package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	fdb "repro"
	"repro/internal/fbuild"
	"repro/internal/fplan"
	"repro/internal/frep"
	"repro/internal/opt"
	"repro/internal/relation"
)

// sessionDecomp is what the session's decomposition derives once: the Q1
// inputs the ad-hoc statements compile from, and the lifted encoding the
// cached aggregate statement executes from.
type sessionDecomp struct {
	rels    []*relation.Relation // Orders, Stock, Disp: deduplicated, in Q1's greedy path order
	classes []relation.AttrSet
	schemas []relation.AttrSet
	aggEnc  *frep.Enc
}

var (
	sessionGroupBy = []relation.Attribute{"Disp.dispatcher"}
	sessionAggs    = []frep.AggSpec{{Fn: frep.AggCount}, {Fn: frep.AggCountDistinct, Attr: "Orders.item"}}
)

func (w *sessionWL) traceInit() error {
	rels, q, err := q1Inputs(w.db)
	if err != nil {
		return err
	}
	d := &sessionDecomp{rels: rels, classes: q.Classes(), schemas: q.Schemas()}
	tree, _, err := opt.GreedyFTree(d.classes, d.schemas)
	if err != nil {
		return err
	}
	if err := fbuild.SortFor(d.rels, tree); err != nil {
		return err
	}

	// The aggregate statement: the greedy tree with the group-by attribute
	// lifted, as prepareSpec compiles it.
	lifted := tree.Clone()
	if err := (fplan.Lift{Attrs: sessionGroupBy}).ApplyTree(lifted); err != nil {
		return err
	}
	st, err := w.db.PrepareCached(aggClauses()...)
	if err != nil {
		return err
	}
	if got, want := lifted.String(), st.FTree(); got != want {
		return fmt.Errorf("aggregate: the decomposition derived f-tree\n%s but the statement compiled\n%s", got, want)
	}
	own := make([]*relation.Relation, len(rels))
	for i, r := range rels {
		own[i] = relation.New(r.Name, r.Schema)
		own[i].Tuples = append([]relation.Tuple(nil), r.Tuples...)
	}
	if err := fbuild.SortFor(own, lifted); err != nil {
		return err
	}
	d.aggEnc, err = fbuild.BuildEncParallel(own, lifted, w.db.Parallelism())
	w.decomp = d
	return err
}

// traceOp runs one session whole, then again step by step with every
// layer call in a span, and fails unless both produce the same answers.
func (w *sessionWL) traceOp(tr *tracer, _ *rand.Rand) error {
	first := w.next
	root := tr.begin(spanOp, noParent)
	whole, err := w.session()
	tr.end(root)
	w.ops++
	if err != nil {
		return err
	}
	if err := w.verify(whole); err != nil {
		return err
	}

	w.next = first
	dec := &sessionOut{}
	var qa, qb *fdb.Result
	for i := 0; i < adhocPairs; i++ {
		pair := w.pairs[w.next%len(w.pairs)]
		dec.a, dec.b = pair[0], pair[1]
		w.next++
		if qa, err = w.replayAdhoc(tr, root, dec.a); err != nil {
			return err
		}
		if qb, err = w.replayAdhoc(tr, root, dec.b); err != nil {
			return err
		}
	}
	dec.aCount, dec.bCount = qa.Count(), qb.Count()

	id := tr.begin(spanCachedQuery, root)
	q2, err := w.q2()
	tr.end(id)
	if err != nil {
		return err
	}
	conds := []opt.Condition{{A: "Orders.item", B: "Produce.item"}, {A: "Stock.location", B: "Serve.location"}}
	id = tr.begin(spanJoin, root)
	joined, err := qa.Join(q2, fdb.Eq(string(conds[0].A), string(conds[0].B)), fdb.Eq(string(conds[1].A), string(conds[1].B)))
	tr.end(id)
	if err != nil {
		return err
	}
	dec.joinCount = joined.Count()
	if err := replayJoin(tr, id, qa.Enc(), q2.Enc(), conds, joined.Enc()); err != nil {
		return err
	}

	for i := 0; i < aggRepeats; i++ {
		id = tr.begin(spanCachedQuery, root)
		ar, err := w.db.QueryAgg(aggClauses()...)
		tr.end(id)
		if err != nil {
			return err
		}
		dec.aggSchema, dec.aggRows = ar.Schema(), ar.Rows(0)
		agg := tr.begin(spanAggregate, id)
		rows, err := w.decomp.aggEnc.AggregateParallel(sessionGroupBy, sessionAggs, w.db.Parallelism())
		tr.end(agg)
		if err != nil {
			return err
		}
		if !sameAggRows(w.db.Dict(), rows, dec.aggRows) {
			return fmt.Errorf("aggregate: the decomposed aggregation disagrees with QueryAgg")
		}
	}

	id = tr.begin(spanCachedQuery, root)
	top, err := w.db.Query(topKClauses()...)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin(spanRows, root)
	dec.topCols, dec.topRows = top.Schema(), top.Rows(0)
	tr.end(id)
	tr.count("rows_out", float64(len(dec.topRows)))
	// A result sorts at most once: drain a fresh one for the ordering alone.
	fresh, err := w.db.Query(topKClauses()...)
	if err != nil {
		return err
	}
	ord := tr.begin(spanOrdered, id)
	it := fresh.Iter()
	for _, ok := it.Next(); ok; _, ok = it.Next() {
	}
	tr.end(ord)

	id = tr.begin(spanSetOp, root)
	both, err := qa.Intersect(qb)
	tr.end(id)
	if err != nil {
		return err
	}
	dec.setCount = both.Count()
	set := tr.begin(spanSetOpEnc, id)
	enc, err := frep.IntersectEnc(qa.Enc(), qb.Enc())
	tr.end(set)
	if err != nil {
		return err
	}
	if !enc.Equal(both.Enc()) {
		return fmt.Errorf("intersect: the decomposed intersection arrives at a different representation")
	}
	for _, r := range []*fdb.Result{qa, joined, both} {
		tr.count("flat_values", float64(r.Enc().FlatSize()))
		tr.count("singletons", float64(r.Size()))
	}

	if dec.aCount != whole.aCount || dec.bCount != whole.bCount || dec.joinCount != whole.joinCount ||
		dec.setCount != whole.setCount || !sameRows(dec.aggRows, whole.aggRows) || !sameRows(dec.topRows, whole.topRows) {
		return fmt.Errorf("the decomposed session's answers differ from the whole session's")
	}
	return nil
}

// replayAdhoc makes the layer calls of one ad-hoc db.Query that misses the
// plan cache: a cold Prepare (f-tree search, constant pre-filter) and an
// execution (build).
func (w *sessionWL) replayAdhoc(tr *tracer, root int, r [2]int64) (*fdb.Result, error) {
	d := w.decomp
	id := tr.begin(spanPrepareCold, root)
	st, err := w.db.Prepare(adhocClauses(r)...)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	c := tr.begin(spanFTreeSearch, id)
	tree, _, err := opt.GreedyFTree(d.classes, d.schemas)
	tr.end(c)
	if err != nil {
		return nil, err
	}
	lo, hi := relation.Value(r[0]), relation.Value(r[1])
	c = tr.begin(spanFilter, id)
	// prepareSpec bakes a constant selection with Select, which copies.
	orders := d.rels[0].Select(func(t relation.Tuple) bool { return t[0] >= lo && t[0] <= hi })
	tr.end(c)
	tr.count("examined", float64(len(d.rels[0].Tuples)))
	orders.Name = d.rels[0].Name

	id = tr.begin(spanExec, root)
	res, err := st.Exec()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	tr.count("rows_out", float64(res.Count()))
	rels := []*relation.Relation{orders, d.rels[1], d.rels[2]}
	if err := fbuild.SortFor(rels, tree); err != nil {
		return nil, err
	}
	c = tr.begin(spanBuild, id)
	enc, err := fbuild.BuildEncParallelContext(context.Background(), rels, tree, w.db.Parallelism())
	tr.end(c)
	if err != nil {
		return nil, err
	}
	tr.count("builds", 1)
	tr.count("built_singletons", float64(enc.Size()))
	if !enc.Equal(res.Enc()) {
		return nil, fmt.Errorf("ad-hoc query %v: the decomposed filter and build arrive at a different representation than Query", r)
	}
	return res, nil
}

// replayJoin makes the layer calls of Result.Join: the product, the f-plan
// search, and the plan's operators one by one.
func replayJoin(tr *tracer, parent int, a, b *frep.Enc, conds []opt.Condition, want *frep.Enc) error {
	id := tr.begin(spanProduct, parent)
	enc, err := fplan.ProductEnc(a, b)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin(spanFPlanSearch, parent)
	found, err := opt.ExhaustivePlan(enc.Tree, conds, opt.PlanSearchOptions{})
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin(spanApply, parent)
	for _, op := range found.Plan.Ops {
		if enc, err = fplan.ApplyEnc(op, enc); err != nil {
			break
		}
	}
	tr.end(id)
	if err != nil {
		return err
	}
	for _, op := range found.Plan.Ops {
		switch op.(type) {
		case fplan.Swap, fplan.Absorb, fplan.Lift:
			// No native columnar form: decode, pointer operator, encode.
			tr.count("fallback_ops", 1)
		}
	}
	if !enc.Equal(want) {
		return fmt.Errorf("join: the decomposed product, plan search and operators arrive at a different representation than Join")
	}
	return nil
}

func sameRows(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if strings.Join(a[i], "\x00") != strings.Join(b[i], "\x00") {
			return false
		}
	}
	return true
}

// sameAggRows compares aggregate rows with their rendering by AggResult.Rows.
func sameAggRows(dict *relation.Dict, rows []frep.AggRow, rendered [][]string) bool {
	got := make([][]string, len(rows))
	for i, r := range rows {
		for _, k := range r.Key {
			got[i] = append(got[i], dict.Decode(k))
		}
		for _, v := range r.Vals {
			got[i] = append(got[i], strconv.FormatInt(v, 10))
		}
	}
	return sameRows(got, rendered)
}
