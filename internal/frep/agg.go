// Aggregation on factorised representations: COUNT, SUM, MIN, MAX and
// COUNT DISTINCT, optionally grouped, evaluated in one pass over the
// representation — never over its flattening.
//
// Grouping needs the lifted layout (fplan.Lift): every ancestor of a node
// holding a group-by attribute holds one too. The group zone — the nodes
// holding group-by attributes — is then the top of the tree, its unions
// hold distinct values, and each combination of zone entries, one per zone
// node and each below its parent's, is exactly one group.
//
// Outside the zone, the aggregates of entries [lo,hi) of one node have
// closed forms (span). No union below a root is empty (the reduction
// invariant), so every value in a column run beneath the span is in one of
// its tuples: COUNT is countSpan; a SUM weighs each value by the tuple
// count of the rest of its tuples (sumSpan); MIN, MAX and COUNT DISTINCT
// reduce the attribute's column run (below) — a distinct count is the
// run's length when it is one union (sorted and distinct), else a sorted
// copy's. A zone entry's own partial is its value crossed with the closed
// forms of its child subtrees outside the zone (fill). The walk of the zone
// crosses the own partials of each combination — products of independent
// relations —
//
//	cnt(X × Y)   = cnt(X) · cnt(Y)
//	sum_A(X × Y) = sum_A(X) · cnt(Y) + sum_A(Y) · cnt(X)
//
// (an attribute labels exactly one node, so one of the two sums is zero;
// minima, maxima and distinct counts pass through from the side holding
// the attribute) and emits one row per combination. Nothing merges by key,
// nothing allocates per entry, and no partial holds a pointer.
package frep

import (
	"context"
	"fmt"
	"math"

	"repro/internal/relation"
)

// AggFunc selects an aggregate function.
type AggFunc int

// Supported aggregate functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggMin
	AggMax
	AggCountDistinct
)

func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggCountDistinct:
		return "count_distinct"
	}
	return "agg?"
}

// AggSpec is one aggregate to compute: a function and, except for AggCount,
// the attribute it folds over. SUM, MIN and MAX operate on the engine's
// int64 values and are meant for integer attributes: the engine refuses
// them over string attributes, whose values here are dictionary codes.
type AggSpec struct {
	Fn   AggFunc
	Attr relation.Attribute // ignored for AggCount
}

// Label renders the spec as a result-column name, e.g. "sum(Orders.qty)".
func (s AggSpec) Label() string {
	if s.Fn == AggCount {
		return "count"
	}
	return fmt.Sprintf("%s(%s)", s.Fn, s.Attr)
}

// AggRow is one output group: its key values (parallel to the groupBy
// attributes; empty for a global aggregate) and one int64 per AggSpec.
type AggRow struct {
	Key  []relation.Value
	Vals []int64
}

// newAggEval validates the aggregation request against e's tree and
// prepares the evaluation context, with its per-node tables indexed by e's
// pre-order node index. It refuses a tree that is not lifted for groupBy,
// and reports ctx's error if it is already cancelled.
func newAggEval(ctx context.Context, e *Enc, groupBy []relation.Attribute, specs []AggSpec) (*aggEval, error) {
	t := e.Tree
	n := len(e.ti.nodes)
	ev := &aggEval{nKey: len(groupBy), specs: specs, ctx: ctx, pivot: -1,
		keysAt: make([][]int, n), specNode: make([]int, len(specs)), seat: make([]int32, n)}
	slot := make(map[relation.Attribute]int, len(groupBy))
	for i, a := range groupBy {
		if _, dup := slot[a]; dup {
			return nil, fmt.Errorf("frep: duplicate group-by attribute %q", a)
		}
		if t.NodeOf(a) == nil || t.Hidden.Has(a) {
			return nil, fmt.Errorf("frep: group-by attribute %q not in representation", a)
		}
		slot[a] = i
	}
	for i, s := range specs {
		ev.specNode[i] = -1
		if s.Fn == AggCount {
			continue
		}
		nd := t.NodeOf(s.Attr)
		if nd == nil || t.Hidden.Has(s.Attr) {
			return nil, fmt.Errorf("frep: aggregate attribute %q not in representation", s.Attr)
		}
		ev.specNode[i] = e.ti.idx[nd]
	}
	for ni, nd := range e.ti.nodes {
		for _, a := range nd.Attrs {
			if si, ok := slot[a]; ok {
				ev.keysAt[ni] = append(ev.keysAt[ni], si)
			}
		}
		if !ev.zoned(ni) {
			continue
		}
		if pa := e.ti.par[ni]; pa >= 0 && !ev.zoned(pa) {
			return nil, fmt.Errorf("frep: node %v holds no group-by attribute but %v below it does: lift the group-by attributes first (fplan.Lift)",
				e.ti.nodes[pa].Attrs, nd.Attrs)
		}
		ev.zone = append(ev.zone, ni) // in pre-order: parents before children
	}
	return ev, ctx.Err()
}

// aggEval carries the evaluation context. The per-node tables are built
// once per call and shared read-only by parallel workers. The zone's own
// partials are shared too: each is written once, before the workers start
// or by the one worker whose chunk holds its entry. Everything else is
// private to one worker.
type aggEval struct {
	nKey     int
	specs    []AggSpec
	specNode []int   // per spec: its attribute's node (-1 for COUNT)
	keysAt   [][]int // group-key slots of the node's own attributes
	zone     []int   // the group zone's nodes, in pre-order
	// own[ni][j] is the own partial of entry j of zone node ni (nil for
	// other nodes): the entry's value crossed with the closed forms of its
	// child subtrees outside the zone.
	own [][]partial
	// One partial per zone position of the walk, reused across the pass,
	// and the buffer a column run's distinct values are sorted in.
	scratch []*partial
	buf     []relation.Value
	// The walk's state: the entry each zone node is seated on, the range
	// of its root's entries a worker walks (pivot -1: every root whole),
	// and the rows emitted so far.
	seat     []int32
	pivot    int
	plo, phi int32
	rows     []AggRow
	// Cancellation: ctx is polled every checkTick entries; a non-nil err
	// ends every loop of the pass.
	ctx  context.Context
	tick uint
	err  error
}

// zoned reports whether node ni is in the group zone.
func (ev *aggEval) zoned(ni int) bool { return len(ev.keysAt[ni]) > 0 }

// under reports whether node nd lies in the subtree of node ni.
func (e *Enc) under(ni, nd int) bool { return ni <= nd && nd < e.ti.sub[ni] }

// checkTick is how many entries pass between context polls.
const checkTick = 1024

// checkpoint advances the pass's tick by n entries, polls ctx whenever the
// tick passes a multiple of checkTick, and reports whether the pass has
// been cancelled.
func (ev *aggEval) checkpoint(n int32) bool {
	old := ev.tick
	ev.tick += uint(n)
	if ev.err == nil && ev.tick/checkTick != old/checkTick {
		ev.err = ev.ctx.Err()
	}
	return ev.err != nil
}

// scratchAt returns the walk's scratch partial for zone position k, set to
// a copy of acc.
func (ev *aggEval) scratchAt(k int, acc *partial) *partial {
	for len(ev.scratch) <= k {
		ev.scratch = append(ev.scratch, &partial{st: make([]aggState, len(ev.specs))})
	}
	p := ev.scratch[k]
	p.cnt = acc.cnt
	copy(p.st, acc.st)
	return p
}

// aggState is the running value of one AggSpec inside a partial: both
// fields stay zero until the spec's attribute is in the partial's subtree.
// It holds no pointer, so partials copy and reset as plain memory.
type aggState struct {
	sum int64
	m   int64 // min, max or distinct count of the subtree
}

// partial is the aggregate of one group over one subtree: the tuple count
// and one state per spec. A partial always represents at least one tuple.
type partial struct {
	cnt int64
	st  []aggState
}

// applyNode extends a partial by the value v of an entry of zone node ni
// for every aggregated attribute of the node. The attribute labels only
// this node, so the corresponding spec state is untouched below and the
// updates are first-writes. The entry holds one distinct value.
func (ev *aggEval) applyNode(p *partial, ni int, v relation.Value) {
	for i, nd := range ev.specNode {
		if nd != ni {
			continue
		}
		st := &p.st[i]
		switch ev.specs[i].Fn {
		case AggSum:
			st.sum = satMulI(int64(v), p.cnt)
		case AggMin, AggMax:
			st.m = int64(v)
		case AggCountDistinct:
			st.m = 1
		}
	}
}

// cross folds the independent scalar q into p in place. Attributes
// are disjoint, so at most one side holds each state and the other's is
// zero: a minimum, maximum or distinct count passes through as the sum.
func (ev *aggEval) cross(p, q *partial) {
	for i := range p.st {
		a, b := &p.st[i], &q.st[i]
		a.sum = satAddI(satMulI(a.sum, q.cnt), satMulI(b.sum, p.cnt))
		a.m += b.m
	}
	p.cnt = satMul(p.cnt, q.cnt)
}

// SatMul and SatAdd multiply and add saturating at math.MaxInt64 —
// exported so the public layer's size accounting clips the same way the
// representation measures do.
func SatMul(a, b int64) int64 { return satMul(a, b) }
func SatAdd(a, b int64) int64 { return satAdd(a, b) }

// satMul and satAdd are the count arithmetic: non-negative operands,
// saturating at math.MaxInt64.
func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// satAddI adds signed values, saturating at ±math.MaxInt64 (sums may go
// negative, unlike counts).
func satAddI(a, b int64) int64 {
	s := a + b
	if a > 0 && b > 0 && s < 0 {
		return math.MaxInt64
	}
	if a < 0 && b < 0 && s >= 0 {
		return math.MinInt64
	}
	return s
}

// satMulI multiplies signed values with saturation.
func satMulI(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a == math.MinInt64 || b == math.MinInt64 {
		if a == 1 {
			return b
		}
		if b == 1 {
			return a
		}
		if (a < 0) == (b < 0) {
			return math.MaxInt64
		}
		return math.MinInt64
	}
	r := a * b
	if r/b != a {
		if (a < 0) == (b < 0) {
			return math.MaxInt64
		}
		return math.MinInt64
	}
	return r
}
