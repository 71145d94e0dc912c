package main

import (
	"math/rand"

	"repro/internal/relation"
	"repro/internal/wire"
)

// ordersItem is the column of Orders.item in Orders' schema.
const ordersItem = 1

// traceReads runs a read-only operation traced on connection 0: whole under
// a root span, verified, then each statement decomposed under that span.
func (b *wireBase) traceReads(tr *tracer, args [][]wire.Arg, verify func([]*wire.Rows) error) error {
	root := tr.begin(spanOp, noParent)
	replies, rows, err := b.reads(0, args)
	tr.end(root)
	if err != nil {
		return err
	}
	if err := verify(rows); err != nil {
		return err
	}
	return b.replayReads(tr, root, args, replies, false)
}

// replayReads decomposes every statement of an operation whose whole
// execution returned replies.
func (b *wireBase) replayReads(tr *tracer, root int, args [][]wire.Arg, replies [][]byte, refresh bool) error {
	for s, t := range b.traces {
		var bind []wire.Arg
		if args != nil {
			bind = args[s]
		}
		if err := t.replay(tr, root, b.stmts[0][s].Handle, bind, replies[s], refresh); err != nil {
			return err
		}
	}
	return nil
}

func (w *pointWL) traceInit() error {
	point, err := newStmtTrace(w.db, w.names[0], itemPointSpec(), func(args []wire.Arg) func(relation.Tuple) bool {
		item := relation.Value(args[0].Val.Int)
		return func(t relation.Tuple) bool { return t[ordersItem] == item }
	})
	if err != nil {
		return err
	}
	band, err := newStmtTrace(w.db, w.names[1], itemBandAggSpec(), func(args []wire.Arg) func(relation.Tuple) bool {
		lo, hi := relation.Value(args[0].Val.Int), relation.Value(args[1].Val.Int)
		return func(t relation.Tuple) bool { return t[ordersItem] >= lo && t[ordersItem] <= hi }
	})
	w.traces = []*stmtTrace{point, band}
	return err
}

func (w *pointWL) traceOp(tr *tracer, rng *rand.Rand) error {
	if w.draw == nil {
		w.draw = w.bindings(rng)
	}
	item, lo := w.draw()
	return w.traceReads(tr, pointArgs(item, lo), w.verifier(item, lo))
}

func (w *scanWL) traceInit() error {
	full, err := newStmtTrace(w.db, w.names[0], q1Spec(), nil)
	if err != nil {
		return err
	}
	proj, err := newStmtTrace(w.db, w.names[1], projJoinSpec(), nil)
	w.traces = []*stmtTrace{full, proj}
	return err
}

func (w *scanWL) traceOp(tr *tracer, _ *rand.Rand) error {
	return w.traceReads(tr, nil, w.verify)
}

func (w *writeWL) traceInit() error {
	for i, sp := range []wire.Spec{countByDispSpec(), topDispatchSpec(), totalCountSpec()} {
		t, err := bareStmtTrace(w.db, w.names[i], sp)
		if err != nil {
			return err
		}
		w.traces = append(w.traces, t)
	}
	return nil
}

// traceOp runs one cycle whole over the wire, undoes its write (and lets
// every statement fold the undo in), then makes the same write and the same
// reads through the library: the state the decomposed cycle reads is the
// state the whole one read, so the replies must be byte-equal.
func (w *writeWL) traceOp(tr *tracer, rng *rand.Rand) error {
	const c = 0
	row, insert := w.nextWrite(c, rng)

	root := tr.begin(spanOp, noParent)
	err := w.write(c, row, insert)
	var replies [][]byte
	var got []*wire.Rows
	if err == nil {
		replies, got, err = w.reads(c, nil)
	}
	tr.end(root)
	if err != nil {
		return err
	}
	w.applied(c, row, insert)
	if err := w.checkLive(c, got); err != nil {
		return err
	}

	if err := w.write(c, row, !insert); err != nil {
		return err
	}
	if _, _, err := w.reads(c, nil); err != nil {
		return err
	}

	id := tr.begin(spanWrite, root)
	if insert {
		err = w.db.Insert("Orders", row.oid, row.item)
	} else {
		err = w.db.Delete("Orders", row.oid, row.item)
	}
	tr.end(id)
	if err != nil {
		return err
	}
	return w.replayReads(tr, root, nil, replies, true)
}
