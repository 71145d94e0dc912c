// Aggregation on factorised representations: COUNT, SUM, MIN, MAX and
// COUNT DISTINCT, optionally grouped, evaluated in one recursive pass over
// the representation — never over its flattening.
//
// The evaluator follows the algebraic structure of the representation. A
// union is a disjoint union of relations, so partial aggregates of its
// entries combine additively: counts and sums add, minima and maxima
// combine by min/max, distinct-value sets union by a sorted merge. A
// product is a Cartesian product of independent relations, so counts
// multiply and sums cross-combine by count-weighting:
//
//	cnt(X × Y)   = cnt(X) · cnt(Y)
//	sum_A(X × Y) = sum_A(X) · cnt(Y) + sum_A(Y) · cnt(X)
//
// (an attribute labels exactly one node, so one of the two sums is zero);
// minima, maxima and distinct sets pass through unchanged from the side
// holding the attribute, because every partial represents at least one
// tuple (the reduction invariant). Grouping keys are collected along the
// way: each partial carries the group-attribute values fixed in its
// subtree, and partials merge keyed by them.
//
// The pass runs in time proportional to the representation size times the
// number of distinct partial groups met per union. When the group-by
// attributes label nodes above all aggregated ones (the layout the query
// compiler arranges with fplan.Lift), every union below the group zone
// holds exactly one partial group and the pass is linear in |E|.
//
// Nothing below the group zone allocates per entry. A distinct set is a
// sorted slice, and mostly a view of the arena: union values are sorted
// and distinct, so the set of a union at the node carrying a COUNT
// DISTINCT attribute is the union's own value span, and its distinct count
// is the span's length. Deeper down, the values below a run of entries are
// still one contiguous run of the attribute's column, sorted once per span.
// Sets merge pairwise only where partials of one group meet: across the
// roots, the parallel chunks and (in trees where a non-group node sits
// above a group attribute) the group zone's entries.
package frep

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

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
// int64 values; on dictionary-encoded string attributes they order by
// dictionary code, not lexicographically.
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
// pre-order node index.
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
	ev := &aggEval{nKey: len(groupBy), specs: specs, ctx: ctx,
		groupBelow: make([]bool, n), specBelow: make([]bool, n),
		keysAt: make([][]int, n), specsAt: make([][]int, n), setNode: make([]int, len(specs))}
	for i := range specs {
		ev.setNode[i] = -1
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
					ev.setNode[i] = ni
				}
			}
		}
		g, sp := len(ev.keysAt[ni]) > 0, len(ev.specsAt[ni]) > 0
		for _, ci := range e.ti.kids[ni] {
			g, sp = g || ev.groupBelow[ci], sp || ev.specBelow[ci]
		}
		ev.groupBelow[ni], ev.specBelow[ni] = g, sp
	}
	return ev, nil
}

// withScalar crosses the scalar partial into every keyed partial of cur, or
// makes it the one keyed partial when there are none.
func (ev *aggEval) withScalar(cur map[string]*partial, scalar *partial) map[string]*partial {
	if cur == nil {
		scalar.key = make([]relation.Value, ev.nKey)
		cur = map[string]*partial{pkey(scalar.key): scalar}
	} else if !scalar.isUnit() {
		for _, p := range cur {
			ev.crossScalar(p, scalar)
		}
	}
	return cur
}

// finishRows folds the top-level scalar into the keyed partials and renders
// the sorted output rows.
func (ev *aggEval) finishRows(cur map[string]*partial, scalar *partial) []AggRow {
	cur = ev.withScalar(cur, scalar)
	rows := make([]AggRow, 0, len(cur))
	for _, p := range cur {
		row := AggRow{Key: p.key, Vals: make([]int64, len(ev.specs))}
		for i, s := range ev.specs {
			switch s.Fn {
			case AggCount:
				row.Vals[i] = p.cnt
			case AggSum:
				row.Vals[i] = p.st[i].sum
			case AggMin, AggMax:
				row.Vals[i] = p.st[i].m
			case AggCountDistinct:
				row.Vals[i] = int64(len(p.st[i].set))
			}
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		for k := range rows[i].Key {
			if rows[i].Key[k] != rows[j].Key[k] {
				return rows[i].Key[k] < rows[j].Key[k]
			}
		}
		return false
	})
	return rows
}

// aggEval carries the evaluation context. The per-node tables are built
// once per call and shared read-only by parallel workers; everything below
// them is private to one worker.
type aggEval struct {
	nKey       int
	specs      []AggSpec
	groupBelow []bool  // node or a descendant holds a group attr
	specBelow  []bool  // node or a descendant holds a spec attr
	keysAt     [][]int // group-key slots of the node's own attributes
	specsAt    [][]int // non-COUNT specs over the node's own attributes
	setNode    []int   // per spec: its attribute's node if COUNT DISTINCT, else -1
	// Per-depth scratch accumulators for the scalar path: one union total
	// and one entry partial per recursion depth, reused across the whole
	// pass so the hot path allocates nothing. Results are consumed (sets
	// shared, values copied) before a slot is reused.
	uscratch []*partial
	escratch []*partial
	// Cancellation: ctx is polled every checkTick entries; a non-nil err
	// ends every loop of the pass.
	ctx  context.Context
	tick uint
	err  error
}

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
	for i := range p.st {
		p.st[i] = aggState{}
	}
	return p
}

// aggState is the running value of one AggSpec inside a partial. A
// distinct set is sorted ascending and immutable once stored, so partials
// share sets freely; most are views of the arena's value columns.
type aggState struct {
	sum  int64
	m    int64 // min or max of the subtree
	mSet bool  // m holds a value (the spec's attribute is in the subtree)
	set  []relation.Value
}

// partial is the aggregate of one group over one subtree: the group-key
// slots fixed so far (slots of attributes outside the subtree stay zero and
// are uniform across a map), the tuple count, and one state per spec. A
// partial always represents at least one tuple.
type partial struct {
	key []relation.Value
	cnt int64
	st  []aggState
}

// isUnit reports whether p is the aggregate of the nullary product: one
// tuple, no key slot fixed, no spec state touched. Crossing with it is the
// identity.
func (p *partial) isUnit() bool {
	if p.cnt != 1 {
		return false
	}
	for _, v := range p.key {
		if v != 0 {
			return false
		}
	}
	for i := range p.st {
		if p.st[i].sum != 0 || p.st[i].mSet || len(p.st[i].set) > 0 {
			return false
		}
	}
	return true
}

// pkey packs the group-key slots into a map key. All partials in one map
// fix the same slot set, so packing every slot raw is unambiguous.
func pkey(key []relation.Value) string {
	if len(key) == 0 {
		return ""
	}
	b := make([]byte, 8*len(key))
	for i, v := range key {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
	return string(b)
}

// unit is the scalar aggregate of the nullary product: one tuple, nothing
// touched. (Its key stays nil until it enters a keyed map.)
func (ev *aggEval) unit() *partial {
	return &partial{cnt: 1, st: make([]aggState, len(ev.specs))}
}

// applyNode extends a partial by the value v of an entry of node ni for
// every aggregated attribute of the node. The attribute labels only this
// node, so the corresponding spec state is untouched below and the updates
// are first-writes (sum was 0, mSet false, set empty). Distinct specs take
// set, the entry's arena view; a nil set leaves them to the caller.
func (ev *aggEval) applyNode(p *partial, ni int, v relation.Value, set []relation.Value) {
	for _, i := range ev.specsAt[ni] {
		st := &p.st[i]
		switch ev.specs[i].Fn {
		case AggSum:
			st.sum = satMulI(int64(v), p.cnt)
		case AggMin, AggMax:
			st.m, st.mSet = int64(v), true
		case AggCountDistinct:
			st.set = set
		}
	}
}

// crossScalar folds the independent scalar q into p in place. Attributes
// are disjoint, so at most one side holds each state; sets are shared.
func (ev *aggEval) crossScalar(p, q *partial) {
	for i := range p.st {
		a, b := &p.st[i], &q.st[i]
		a.sum = satAddI(satMulI(a.sum, q.cnt), satMulI(b.sum, p.cnt))
		if !a.mSet && b.mSet {
			a.m, a.mSet = b.m, true
		}
		if len(b.set) > 0 {
			a.set = b.set
		}
	}
	p.cnt = satMul(p.cnt, q.cnt)
}

// foldEntry finishes entry j of group-zone node ni: the top-level scalar
// merges into the keyed partials, then the entry's own value extends every
// partial's group slots and aggregate states, re-keying the map where the
// node is "hot" (touches a key slot or a spec attribute).
func (ev *aggEval) foldEntry(cur map[string]*partial, scalar *partial, e *Enc, ni int, j int32) map[string]*partial {
	cur = ev.withScalar(cur, scalar)
	if len(ev.keysAt[ni]) == 0 && len(ev.specsAt[ni]) == 0 {
		return cur
	}
	vals := e.Vals(ni)
	out := make(map[string]*partial, len(cur))
	for _, p := range cur {
		for _, si := range ev.keysAt[ni] {
			p.key[si] = vals[j]
		}
		ev.applyNode(p, ni, vals[j], vals[j:j+1:j+1])
		k := pkey(p.key)
		if q, ok := out[k]; ok {
			ev.add(q, p)
		} else {
			out[k] = p
		}
	}
	return out
}

// add merges q into p: the union of two disjoint relations with the same
// group key. Sets union by one sorted merge into a fresh slice (never in
// place: both sides may be shared, or views of the arena).
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
		if len(a.set) == 0 {
			a.set = b.set
		} else if len(b.set) > 0 {
			a.set = unionSorted(a.set, b.set)
		}
	}
}

// distinctIn returns the sorted distinct values of vals: vals itself,
// capacity clipped, when it is strictly increasing (as one union is),
// otherwise a sorted, compacted copy.
func distinctIn(vals []relation.Value) []relation.Value {
	for k := 1; k < len(vals); k++ {
		if vals[k] <= vals[k-1] {
			out := slices.Clone(vals)
			slices.Sort(out)
			return slices.Compact(out)
		}
	}
	return vals[:len(vals):len(vals)]
}

// unionSorted merges two sorted distinct slices into a fresh one.
func unionSorted(x, y []relation.Value) []relation.Value {
	out := make([]relation.Value, 0, len(x)+len(y))
	for len(x) > 0 && len(y) > 0 {
		switch {
		case x[0] < y[0]:
			out, x = append(out, x[0]), x[1:]
		case y[0] < x[0]:
			out, y = append(out, y[0]), y[1:]
		default:
			out, x, y = append(out, x[0]), x[1:], y[1:]
		}
	}
	return append(append(out, x...), y...)
}

// cross combines two independent partial maps (a Cartesian product):
// counts multiply, sums cross-combine by count-weighting, min/max and
// distinct sets pass through from the side holding the attribute, and the
// disjoint key slots of both sides merge.
func (ev *aggEval) cross(m1, m2 map[string]*partial) map[string]*partial {
	// Identity fast paths: a lone unit partial (the seed of every product
	// fold, and every subtree below the group zone that holds no aggregated
	// attribute) multiplies counts by 1 and adds nothing.
	if len(m2) == 1 {
		for _, p2 := range m2 {
			if p2.isUnit() {
				return m1
			}
		}
	}
	if len(m1) == 1 {
		for _, p1 := range m1 {
			if p1.isUnit() {
				return m2
			}
		}
	}
	out := make(map[string]*partial, len(m1)*len(m2))
	for _, p1 := range m1 {
		for _, p2 := range m2 {
			np := &partial{
				key: make([]relation.Value, ev.nKey),
				cnt: p1.cnt,
				st:  append([]aggState(nil), p1.st...),
			}
			for i := range np.key {
				np.key[i] = p1.key[i] | p2.key[i] // slots are disjoint; unset is 0
			}
			ev.crossScalar(np, p2)
			k := pkey(np.key)
			if q, ok := out[k]; ok {
				ev.add(q, np)
			} else {
				out[k] = np
			}
		}
	}
	return out
}

// SatMul multiplies saturating at math.MaxInt64 — exported so the public
// layer's size accounting clips the same way the representation measures do.
func SatMul(a, b int64) int64 { return satMul(a, b) }

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
