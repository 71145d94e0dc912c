package main

import (
	"context"
	"fmt"
	"time"

	fdb "repro"
	"repro/internal/wire"
)

// q1Spec is the three-way join Orders ⋈ Stock ⋈ Disp every wire statement
// starts from.
func q1Spec() wire.Spec {
	sp := wire.NewSpec(q1From...)
	sp.Eqs = q1Eqs
	return sp
}

// The benchmark's statements. The parameterised ones rebuild the encoding on
// every execution; the parameter-free ones execute from a memoised encoding
// that writes patch.
func itemPointSpec() wire.Spec {
	sp := q1Spec()
	sp.Sels = []wire.Sel{wire.SelParam("Orders.item", wire.OpEQ, "item")}
	sp.Project = []string{"Orders.oid", "Stock.location", "Disp.dispatcher"}
	sp.OrderBy = []wire.OrderKey{{Attr: "Orders.oid"}, {Attr: "Stock.location"}, {Attr: "Disp.dispatcher"}}
	sp.Limit = 64
	return sp
}

func itemBandAggSpec() wire.Spec {
	sp := q1Spec()
	sp.Sels = []wire.Sel{wire.SelParam("Orders.item", wire.OpGE, "lo"), wire.SelParam("Orders.item", wire.OpLE, "hi")}
	sp.GroupBy = []string{"Stock.location"}
	sp.Aggs = []wire.AggSpec{{Fn: wire.AggCount}, {Fn: wire.AggMax, Attr: "Orders.oid"}}
	return sp
}

func projJoinSpec() wire.Spec {
	sp := q1Spec()
	sp.Project = []string{"Orders.oid", "Stock.location", "Disp.dispatcher"}
	return sp
}

func countByDispSpec() wire.Spec {
	sp := q1Spec()
	sp.GroupBy = []string{"Disp.dispatcher"}
	sp.Aggs = []wire.AggSpec{{Fn: wire.AggCount}, {Fn: wire.AggCountDistinct, Attr: "Orders.item"}}
	return sp
}

func topDispatchSpec() wire.Spec {
	sp := q1Spec()
	sp.Project = []string{"Disp.dispatcher", "Orders.item"}
	sp.Distinct = true
	sp.OrderBy = []wire.OrderKey{{Attr: "Disp.dispatcher", Desc: true}, {Attr: "Orders.item"}}
	sp.Limit = 32
	sp.Offset = 8
	return sp
}

func totalCountSpec() wire.Spec {
	sp := q1Spec()
	sp.Aggs = []wire.AggSpec{{Fn: wire.AggCount}}
	return sp
}

// wireBase is what the three wire workloads share: the generated data, an
// in-process wire.Server on loopback over one database, and wireClients
// connections on each of which the workload's statements are prepared.
type wireBase struct {
	ds      *dataset
	db      *fdb.DB
	srv     *wire.Server
	clients []*wire.Client
	names   []string // the statements, in the order an operation runs them
	// stmts[c][s] is statement s prepared on connection c.
	stmts [][]*wire.RemoteStmt

	traces []*stmtTrace // per statement; traced runs only
}

// wireClients is the number of closed-loop connections of every wire
// workload: one per core of the 2-core reference machine.
const wireClients = 2

func (b *wireBase) callers() int      { return wireClients }
func (b *wireBase) database() *fdb.DB { return b.db }
func (b *wireBase) finish() error     { return nil }

// serve serves db on a free loopback port, opens the connections and
// prepares every spec on each.
func (b *wireBase) serve(db *fdb.DB, names []string, specs []wire.Spec) error {
	b.db, b.names, b.srv = db, names, wire.NewServer(db, wire.Options{})
	addr, err := b.srv.Listen("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	for c := 0; c < wireClients; c++ {
		cl, err := wire.Dial(addr.String())
		if err != nil {
			b.close()
			return fmt.Errorf("dial: %w", err)
		}
		b.clients = append(b.clients, cl)
		var stmts []*wire.RemoteStmt
		for i := range specs {
			rs, err := cl.Prepare(&specs[i])
			if err != nil {
				b.close()
				return fmt.Errorf("prepare %s: %w", names[i], err)
			}
			stmts = append(stmts, rs)
		}
		b.stmts = append(b.stmts, stmts)
	}
	return nil
}

// reads executes every statement once on connection c, in order, as
// RemoteStmt.Exec does, and returns each reply's bytes beside its rows.
// args[s] binds statement s; nil args bind nothing.
func (b *wireBase) reads(c int, args [][]wire.Arg) (replies [][]byte, rows []*wire.Rows, err error) {
	for s, rs := range b.stmts[c] {
		var bind []wire.Arg
		if args != nil {
			bind = args[s]
		}
		p, err := rs.Start(0, 0, bind...)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", b.names[s], err)
		}
		body, err := p.Wait()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", b.names[s], err)
		}
		r, err := wire.DecodeRows(body)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", b.names[s], err)
		}
		replies, rows = append(replies, body), append(rows, r)
	}
	return replies, rows, nil
}

// readOp is a read-only operation on connection c: execute the statements,
// stamp the latency, then verify.
func (b *wireBase) readOp(c int, args [][]wire.Arg, verify func([]*wire.Rows) error) (time.Duration, error) {
	t0 := time.Now()
	_, rows, err := b.reads(c, args)
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	return lat, verify(rows)
}

// close drops the connections and drains the server; it returns once every
// server goroutine has ended.
func (b *wireBase) close() {
	for _, cl := range b.clients {
		_ = cl.Close() // the connection is going away either way
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = b.srv.Shutdown(ctx) // a timeout force-closes; nothing to report at teardown
}
