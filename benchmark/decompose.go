package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	fdb "repro"
	"repro/internal/core"
	"repro/internal/fbuild"
	"repro/internal/fplan"
	"repro/internal/frep"
	"repro/internal/ftree"
	"repro/internal/opt"
	"repro/internal/relation"
	"repro/internal/wire"
)

// stmtTrace is what the benchmark needs to make, by itself, the public layer
// calls one wire statement's execution makes. The engine does not expose a
// compiled statement's f-tree or inputs, so they are derived the way
// prepareSpec derives them and checked against Stmt.FTree().
type stmtTrace struct {
	db      *fdb.DB
	name    string
	clauses []fdb.Clause
	stmt    *fdb.Stmt // the plan-cache entry the server executes
	agg     bool
	ordered bool // ORDER BY, LIMIT or OFFSET: retrieval goes through the order machinery

	// Parameterised statements filter their inputs and build per execution.
	tree   *ftree.T
	inputs []*relation.Relation // deduplicated, in the tree's path order
	// filter returns, for this execution's bindings, the predicate on
	// Orders tuples (the one relation every parameter selects on).
	filter func(args []wire.Arg) func(relation.Tuple) bool

	project []relation.Attribute
	groupBy []relation.Attribute
	aggs    []frep.AggSpec
	// pre is the pre-projection encoding of a parameter-free projecting
	// statement, taken from its projection-free twin.
	pre *frep.Enc
}

func attrs(names []string) []relation.Attribute {
	out := make([]relation.Attribute, len(names))
	for i, n := range names {
		out[i] = relation.Attribute(n)
	}
	return out
}

// q1Inputs returns the live Q1 relations, deduplicated, plus the query they
// form (for its attribute classes and schemas).
func q1Inputs(db *fdb.DB) ([]*relation.Relation, *core.Query, error) {
	q := &core.Query{}
	for _, name := range q1From {
		r, ok := db.Relation(name)
		if !ok {
			return nil, nil, fmt.Errorf("no relation %q", name)
		}
		// db.Relation shares tuple storage with the version chain: take a
		// private slice before sorting.
		own := relation.New(r.Name, r.Schema)
		own.Tuples = append([]relation.Tuple(nil), r.Tuples...)
		own.Dedup()
		q.Relations = append(q.Relations, own)
	}
	for _, e := range q1Eqs {
		q.Equalities = append(q.Equalities, core.Equality{A: relation.Attribute(e[0]), B: relation.Attribute(e[1])})
	}
	return q.Relations, q, nil
}

// bareStmtTrace prepares the decomposition of one wire statement down to
// Stmt.ExecContext, without the layer calls inside it.
func bareStmtTrace(db *fdb.DB, name string, sp wire.Spec) (*stmtTrace, error) {
	clauses, err := sp.Clauses()
	if err != nil {
		return nil, err
	}
	st := &stmtTrace{db: db, name: name, clauses: clauses, agg: sp.IsAgg(),
		ordered: len(sp.OrderBy) > 0 || sp.Limit >= 0 || sp.Offset > 0}
	st.stmt, err = db.PrepareCached(clauses...)
	return st, err
}

// newStmtTrace prepares the full decomposition of one wire statement over
// Q1 on data that does not change; filter is nil for a parameter-free one.
func newStmtTrace(db *fdb.DB, name string, sp wire.Spec, filter func([]wire.Arg) func(relation.Tuple) bool) (*stmtTrace, error) {
	st, err := bareStmtTrace(db, name, sp)
	if err != nil {
		return nil, err
	}
	st.filter, st.groupBy = filter, attrs(sp.GroupBy)
	if len(sp.Project) > 0 {
		st.project = attrs(sp.Project)
	}
	for _, a := range sp.Aggs {
		fn := map[byte]frep.AggFunc{wire.AggCount: frep.AggCount, wire.AggMax: frep.AggMax, wire.AggCountDistinct: frep.AggCountDistinct}[a.Fn]
		st.aggs = append(st.aggs, frep.AggSpec{Fn: fn, Attr: relation.Attribute(a.Attr)})
	}

	parameterised := filter != nil
	switch {
	case parameterised && st.agg:
		// prepareSpec plans greedily and lifts the group-by attributes.
		rels, q, err := q1Inputs(db)
		if err != nil {
			return nil, err
		}
		tree, _, err := opt.GreedyFTree(q.Classes(), q.Schemas())
		if err != nil {
			return nil, err
		}
		if err := (fplan.Lift{Attrs: st.groupBy}).ApplyTree(tree); err != nil {
			return nil, err
		}
		st.tree, st.inputs = tree, rels
	case parameterised:
		// The twin without parameters and projection compiles to the same
		// tree (neither takes part in planning) and shows it.
		twin := sp
		twin.Sels, twin.Project = nil, nil
		twinRes, err := execTwin(db, twin)
		if err != nil {
			return nil, err
		}
		rels, _, err := q1Inputs(db)
		if err != nil {
			return nil, err
		}
		st.tree, st.inputs = twinRes.Enc().Tree, rels
	case st.project != nil:
		twin := sp
		twin.Project, twin.Distinct, twin.OrderBy, twin.Limit, twin.Offset = nil, false, nil, -1, 0
		twinRes, err := execTwin(db, twin)
		if err != nil {
			return nil, err
		}
		st.tree, st.pre = twinRes.Enc().Tree, twinRes.Enc()
	}
	if st.tree != nil {
		if got, want := st.tree.String(), st.stmt.FTree(); got != want {
			return nil, fmt.Errorf("%s: the decomposition derived f-tree\n%s but the statement compiled\n%s", name, got, want)
		}
	}
	if st.inputs != nil {
		if err := fbuild.SortFor(st.inputs, st.tree); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func execTwin(db *fdb.DB, sp wire.Spec) (*fdb.Result, error) {
	clauses, err := sp.Clauses()
	if err != nil {
		return nil, err
	}
	st, err := db.Prepare(clauses...)
	if err != nil {
		return nil, err
	}
	return st.Exec()
}

// replay makes, one by one and each in a span under parent, the layer calls
// the server made to answer one execution of the statement, and fails unless
// they produce the bytes the server sent. With refresh set the statement
// executes twice and the first execution's excess over the second is
// recorded as the refresh it paid.
func (st *stmtTrace) replay(tr *tracer, parent int, handle uint32, args []wire.Arg, reply []byte, refresh bool) error {
	ctx, db := context.Background(), st.db
	reqBytes := wire.EncodeExecReq(&wire.ExecReq{Handle: handle, Args: args})
	id := tr.begin(spanDecodeReq, parent)
	req, err := wire.DecodeExecReq(reqBytes)
	tr.end(id)
	if err != nil {
		return err
	}

	id = tr.begin(spanPlanCache, parent)
	stmt, err := db.PrepareCached(st.clauses...)
	tr.end(id)
	if err != nil {
		return err
	}
	named := make([]fdb.NamedArg, len(req.Args))
	for i, a := range req.Args {
		named[i] = fdb.Arg(a.Name, a.Val.Native())
	}

	var res *fdb.Result
	var ares *fdb.AggResult
	exec := func() error {
		var err error
		if st.agg {
			ares, err = stmt.ExecAggContext(ctx, named...)
		} else {
			res, err = stmt.ExecContext(ctx, named...)
		}
		return err
	}
	execID := tr.begin(spanExec, parent)
	err = exec()
	tr.end(execID)
	if err != nil {
		return err
	}
	if refresh {
		t0 := time.Now()
		if err := exec(); err != nil {
			return err
		}
		tr.synthetic(spanRefresh, execID, max(0, time.Duration(tr.spans[execID].dur())-time.Since(t0)))
	}
	if err := st.replayExec(tr, execID, req.Args, res, ares); err != nil {
		return err
	}

	rows := &wire.Rows{}
	rowsID := tr.begin(spanRows, parent)
	if st.agg {
		rows.Schema, rows.Rows = ares.Schema(), ares.Rows(0)
	} else {
		rows.Schema, rows.Rows = res.Schema(), res.Rows(0)
	}
	tr.end(rowsID)
	tr.count("rows_out", float64(len(rows.Rows)))
	if !st.agg {
		// Enumeration alone, without decoding and materialising rows. A
		// result sorts at most once, so an ordered one is drained afresh.
		drain, name := res, spanEnumerate
		if st.ordered {
			name = spanOrdered
			if drain, err = stmt.ExecContext(ctx, named...); err != nil {
				return err
			}
		}
		id = tr.begin(name, rowsID)
		it := drain.Iter()
		for _, ok := it.Next(); ok; _, ok = it.Next() {
		}
		tr.end(id)
		tr.count("flat_values", float64(res.Enc().FlatSize()))
		tr.count("singletons", float64(res.Size()))
	}

	id = tr.begin(spanEncodeRows, parent)
	enc := wire.EncodeRows(rows)
	tr.end(id)
	tr.count("reply_bytes", float64(len(enc)))
	if !bytes.Equal(enc, reply) {
		return fmt.Errorf("%s: the decomposed execution encodes to %d bytes that differ from the server's %d", st.name, len(enc), len(reply))
	}
	id = tr.begin(spanDecodeRows, parent)
	_, err = wire.DecodeRows(enc)
	tr.end(id)
	return err
}

// replayExec makes the layer calls inside one Stmt.ExecContext or
// ExecAggContext, each in a span under the execution's, and checks that they
// arrive at the execution's own result.
func (st *stmtTrace) replayExec(tr *tracer, parent int, args []wire.Arg, res *fdb.Result, ares *fdb.AggResult) error {
	db := st.db
	var enc *frep.Enc
	switch {
	case st.inputs != nil:
		rels := append([]*relation.Relation(nil), st.inputs...)
		id := tr.begin(spanFilter, parent)
		rels[0] = rels[0].Filter(st.filter(args))
		tr.end(id)
		tr.count("examined", float64(len(st.inputs[0].Tuples)))

		var err error
		id = tr.begin(spanBuild, parent)
		enc, err = fbuild.BuildEncParallelContext(context.Background(), rels, st.tree.Clone(), db.Parallelism())
		tr.end(id)
		if err != nil {
			return err
		}
		tr.count("builds", 1)
		tr.count("built_singletons", float64(enc.Size()))
	case st.pre != nil:
		enc = st.pre
	default:
		return nil
	}
	if st.agg {
		id := tr.begin(spanAggregate, parent)
		rows, err := enc.AggregateParallel(st.groupBy, st.aggs, db.Parallelism())
		tr.end(id)
		if err != nil {
			return err
		}
		if !sameAggRows(db.Dict(), rows, ares.Rows(0)) {
			return fmt.Errorf("%s: the decomposed filter, build and aggregate disagree with ExecAgg", st.name)
		}
		return nil
	}
	if st.project != nil {
		var err error
		id := tr.begin(spanApply, parent)
		enc, err = fplan.ApplyEnc(fplan.Project{Attrs: st.project}, enc)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	if !enc.Equal(res.Enc()) {
		return fmt.Errorf("%s: the decomposed filter, build and projection arrive at a different representation than Exec", st.name)
	}
	return nil
}
