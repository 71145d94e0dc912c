// Aggregation on factorised representations: COUNT, SUM, MIN, MAX and
// COUNT DISTINCT, optionally grouped, evaluated in one pass over the
// representation — never over its flattening.
//
// The evaluator follows the algebraic structure of the representation. A
// union is a disjoint union of relations, so partial aggregates of its
// entries combine additively: counts and sums add, minima and maxima
// combine by min/max. A product is a Cartesian product of independent
// relations, so counts multiply and sums cross-combine by count-weighting:
//
//	cnt(X × Y)   = cnt(X) · cnt(Y)
//	sum_A(X × Y) = sum_A(X) · cnt(Y) + sum_A(Y) · cnt(X)
//
// (an attribute labels exactly one node, so one of the two sums is zero);
// minima, maxima and distinct counts pass through unchanged from the side
// holding the attribute, because every partial represents at least one
// tuple (the reduction invariant). Distinct counts do not add: a union's
// count is taken from the values themselves, below.
//
// Grouping needs the lifted layout (fplan.Lift): every ancestor of a node
// holding a group-by attribute holds one too. The group zone — the nodes
// holding group-by attributes — is then the top of the tree, its unions
// hold distinct values, and each combination of zone entries, one per zone
// node and each below its parent's, is exactly one group. The pass folds
// every subtree outside the zone into one partial (the scalar zone), then
// walks the combinations of the zone, crossing in each entry's own partial
// (its value times the scalar partials of its subtrees outside the zone,
// computed once per pass), and emits one row per combination. There are no
// maps and nothing merges by key: the cost is linear in |E| plus the
// number of groups times the number of zone nodes.
//
// Nothing in the scalar zone allocates per entry, and no partial holds a
// pointer. COUNT DISTINCT is a count: a zone entry holding the attribute
// counts 1, and the values below a run of entries outside the zone are one
// contiguous run of the attribute's column, counted once at the top of the
// scalar zone — its length when the run is one union (sorted and
// distinct), else over a sorted copy in a reused buffer. A root outside the
// zone split among workers is recounted whole after its chunks add up.
package frep

import (
	"context"
	"fmt"
	"math"
	"slices"

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
// pre-order node index. It refuses a tree that is not lifted for groupBy.
func newAggEval(ctx context.Context, e *Enc, groupBy []relation.Attribute, specs []AggSpec) (*aggEval, error) {
	t := e.Tree
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
	for _, s := range specs {
		if s.Fn == AggCount {
			continue
		}
		if t.NodeOf(s.Attr) == nil || t.Hidden.Has(s.Attr) {
			return nil, fmt.Errorf("frep: aggregate attribute %q not in representation", s.Attr)
		}
	}
	n := len(e.ti.nodes)
	ev := &aggEval{nKey: len(groupBy), specs: specs, ctx: ctx, pivot: -1, specBelow: make([]bool, n),
		keysAt: make([][]int, n), specsAt: make([][]int, n), distinctNode: make([]int, len(specs)),
		seat: make([]int32, n)}
	for i := range specs {
		ev.distinctNode[i] = -1
	}
	// Children follow their parent in pre-order, so a reverse walk sees
	// every subtree before its root.
	for ni := n - 1; ni >= 0; ni-- {
		for _, a := range e.ti.nodes[ni].Attrs {
			if si, ok := slot[a]; ok {
				ev.keysAt[ni] = append(ev.keysAt[ni], si)
			}
		}
		for i, s := range specs {
			if s.Fn != AggCount && e.ti.nodes[ni].HasAttr(s.Attr) {
				ev.specsAt[ni] = append(ev.specsAt[ni], i)
				if s.Fn == AggCountDistinct {
					ev.distinctNode[i] = ni
				}
			}
		}
		sp := len(ev.specsAt[ni]) > 0
		for _, ci := range e.ti.kids[ni] {
			sp = sp || ev.specBelow[ci]
			if ev.zoned(ci) && !ev.zoned(ni) {
				return nil, fmt.Errorf("frep: node %v holds no group-by attribute but %v below it does: lift the group-by attributes first (fplan.Lift)",
					e.ti.nodes[ni].Attrs, e.ti.nodes[ci].Attrs)
			}
		}
		ev.specBelow[ni] = sp
		if ev.zoned(ni) {
			ev.zone = append(ev.zone, ni)
		}
	}
	slices.Reverse(ev.zone) // into pre-order: parents before children
	return ev, nil
}

// aggEval carries the evaluation context. The per-node tables are built
// once per call and shared read-only by parallel workers. The zone's own
// partials are shared too: each is written once, before the workers start
// or by the one worker whose chunk holds its entry. Everything else is
// private to one worker.
type aggEval struct {
	nKey         int
	specs        []AggSpec
	specBelow    []bool  // node or a descendant holds a spec attr
	keysAt       [][]int // group-key slots of the node's own attributes
	specsAt      [][]int // non-COUNT specs over the node's own attributes
	distinctNode []int   // per spec: its attribute's node if COUNT DISTINCT, else -1
	zone         []int   // the group zone's nodes, in pre-order
	// own[ni][j] is the own partial of entry j of zone node ni (nil for
	// other nodes): the entry's value crossed with the scalar partials of
	// its child subtrees outside the zone.
	own [][]partial
	// Per-depth scratch accumulators: one union total and one entry
	// partial per recursion depth of the scalar zone, and one partial per
	// zone position of the walk, reused across the whole pass so the hot
	// path allocates nothing. Results are consumed before a slot is
	// reused. buf holds the sorted copy of a column run whose distinct
	// values are counted.
	uscratch []*partial
	escratch []*partial
	zscratch []*partial
	buf      []relation.Value
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

// checkTick is how many entries pass between context polls.
const checkTick = 1024

// stopped counts one entry, polls ctx on every checkTick-th (the first
// included) and reports whether the pass has been cancelled.
func (ev *aggEval) stopped() bool {
	if ev.err == nil && ev.tick%checkTick == 0 {
		ev.err = ev.ctx.Err()
	}
	ev.tick++
	return ev.err != nil
}

// scratchAt returns the reset scratch partial for depth d from pool.
func (ev *aggEval) scratchAt(pool *[]*partial, d int, cnt int64) *partial {
	for len(*pool) <= d {
		*pool = append(*pool, &partial{st: make([]aggState, len(ev.specs))})
	}
	p := (*pool)[d]
	p.cnt = cnt
	clear(p.st)
	return p
}

// aggState is the running value of one AggSpec inside a partial. It holds
// no pointer, so partials copy and reset as plain memory.
type aggState struct {
	sum  int64
	m    int64 // min, max or distinct count of the subtree
	mSet bool  // m holds a value (the spec's attribute is in the subtree)
}

// partial is the aggregate of one group over one subtree: the tuple count
// and one state per spec. A partial always represents at least one tuple.
type partial struct {
	cnt int64
	st  []aggState
}

// applyNode extends a partial by the value v of an entry of node ni for
// every aggregated attribute of the node. The attribute labels only this
// node, so the corresponding spec state is untouched below and the updates
// are first-writes (sum was 0, mSet false). The entry holds one distinct
// value.
func (ev *aggEval) applyNode(p *partial, ni int, v relation.Value) {
	for _, i := range ev.specsAt[ni] {
		st := &p.st[i]
		switch ev.specs[i].Fn {
		case AggSum:
			st.sum = satMulI(int64(v), p.cnt)
		case AggMin, AggMax:
			st.m, st.mSet = int64(v), true
		case AggCountDistinct:
			st.m, st.mSet = 1, true
		}
	}
}

// crossScalar folds the independent scalar q into p in place. Attributes
// are disjoint, so at most one side holds each state.
func (ev *aggEval) crossScalar(p, q *partial) {
	for i := range p.st {
		a, b := &p.st[i], &q.st[i]
		a.sum = satAddI(satMulI(a.sum, q.cnt), satMulI(b.sum, p.cnt))
		if !a.mSet && b.mSet {
			a.m, a.mSet = b.m, true
		}
	}
	p.cnt = satMul(p.cnt, q.cnt)
}

// add merges q into p: the union of two disjoint relations with the same
// group key. A distinct count does not add (the two sides may share
// values): p keeps its own, and the caller recounts the union's values
// (countDistinct).
func (ev *aggEval) add(p, q *partial) {
	p.cnt = satAdd(p.cnt, q.cnt)
	for i := range p.st {
		a, b := &p.st[i], &q.st[i]
		a.sum = satAddI(a.sum, b.sum)
		if b.mSet {
			switch {
			case !a.mSet:
				a.m, a.mSet = b.m, true
			case ev.specs[i].Fn == AggMin && b.m < a.m:
				a.m = b.m
			case ev.specs[i].Fn == AggMax && b.m > a.m:
				a.m = b.m
			}
		}
	}
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
