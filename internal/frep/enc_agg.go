// The aggregation walk: the algebraic evaluator of agg.go — unions add
// partials, products multiply counts and cross-combine sums — driven over
// value columns and offset spans with index arithmetic, and the walk of the
// group zone that turns each combination of zone entries into one row.
package frep

import (
	"context"
	"slices"

	"repro/internal/relation"
)

// Aggregate computes the given aggregates over the represented relation,
// grouped by the groupBy attributes, in one pass over the columns — never
// over the flattening. The tree must be lifted for groupBy: every ancestor
// of a node holding a group-by attribute holds one too (fplan.Lift arranges
// it; the query compiler lifts every grouped statement), and any other tree
// is refused with an error. Rows come back sorted by group key. An empty
// representation yields no rows (also for global aggregates, where SQL would
// return one NULL-ish row).
//
// Counts saturate at math.MaxInt64; sums saturate at ±math.MaxInt64 — like
// Count, exact for the paper's workloads and clamped beyond.
func (e *Enc) Aggregate(groupBy []relation.Attribute, specs []AggSpec) ([]AggRow, error) {
	return e.AggregateParallelContext(context.Background(), groupBy, specs, 1)
}

// encScalarSpan aggregates entries [lo,hi) of node ni — a subtree holding
// no group attribute — into a single partial, with no allocation per entry.
// The returned partial lives in the depth-d scratch slot; the caller must
// consume it before the next encScalarSpan call at that depth. Distinct
// counts skip the per-entry work: the top of the scalar zone (d == 0)
// counts them off the arena (countDistinct).
func (ev *aggEval) encScalarSpan(e *Enc, ni int, lo, hi int32, d int) *partial {
	if !ev.specBelow[ni] {
		return ev.scratchAt(&ev.uscratch, d, e.countSpan(ni, lo, hi))
	}
	total := ev.scratchAt(&ev.uscratch, d, 0)
	for j := lo; j < hi && !ev.stopped(); j++ {
		ev.add(total, ev.encScalarEntry(e, ni, j, d))
	}
	if d == 0 {
		ev.countDistinct(e, ni, lo, hi, total)
	}
	return total
}

// countDistinct sets p's COUNT DISTINCT states to the counts of entries
// [lo,hi) of node ni. The values of a descendant below a run of entries are
// one contiguous run of its column: its length counts them when the run is
// strictly increasing (one union), else a sorted copy in ev.buf does.
func (ev *aggEval) countDistinct(e *Enc, ni int, lo, hi int32, p *partial) {
	for i, nd := range ev.distinctNode {
		if nd < ni || nd >= e.ti.sub[ni] {
			continue
		}
		dlo, dhi := e.below(ni, nd, lo, hi)
		vals := e.Vals(nd)[dlo:dhi]
		n := len(vals)
		for k := 1; k < len(vals); k++ {
			if vals[k] <= vals[k-1] {
				ev.buf = append(ev.buf[:0], vals...)
				slices.Sort(ev.buf)
				n = len(slices.Compact(ev.buf))
				break
			}
		}
		p.st[i].m, p.st[i].mSet = int64(n), true
	}
}

// encScalarEntry aggregates one entry (absolute index j) of node ni.
func (ev *aggEval) encScalarEntry(e *Enc, ni int, j int32, d int) *partial {
	p := ev.scratchAt(&ev.escratch, d, 1)
	for _, ci := range e.ti.kids[ni] {
		clo, chi := e.UnionSpan(ci, int(j))
		ev.crossScalar(p, ev.encScalarSpan(e, ci, clo, chi, d+1))
	}
	ev.applyNode(p, ni, e.Vals(ni)[j])
	return p
}

// below maps entries [lo,hi) of node ni to the entries of its descendant
// nd beneath them: union k of a child belongs to entry k of its parent.
func (e *Enc) below(ni, nd int, lo, hi int32) (int32, int32) {
	if nd == ni {
		return lo, hi
	}
	lo, hi = e.below(ni, e.ti.par[nd], lo, hi)
	o := e.Offs(nd)
	return o[lo], o[hi]
}

// fill computes the own partial of entries [lo,hi) of zone node ni and of
// every zone entry below them: the entry's value crossed with the scalar
// partials of its child subtrees outside the zone.
func (ev *aggEval) fill(e *Enc, ni int, lo, hi int32) {
	vals := e.Vals(ni)
	for j := lo; j < hi && !ev.stopped(); j++ {
		p := &ev.own[ni][j]
		p.cnt = 1
		for _, ci := range e.ti.kids[ni] {
			if !ev.zoned(ci) {
				clo, chi := e.UnionSpan(ci, int(j))
				ev.crossScalar(p, ev.encScalarSpan(e, ci, clo, chi, 0))
			}
		}
		ev.applyNode(p, ni, vals[j])
	}
	for _, ci := range e.ti.kids[ni] {
		if ev.zoned(ci) {
			o := e.Offs(ci)
			ev.fill(e, ci, o[lo], o[hi])
		}
	}
}

// walk seats zone position k on each entry of its union under the seated
// parent, crossing the entry's own partial into acc, and recurses; past the
// last position acc is the aggregate of one group and becomes a row.
func (ev *aggEval) walk(e *Enc, k int, acc *partial) {
	if k == len(ev.zone) {
		ev.rows = append(ev.rows, ev.row(e, acc))
		return
	}
	ni := ev.zone[k]
	lo, hi := int32(0), int32(e.NumEntries(ni))
	if pa := e.ti.par[ni]; pa >= 0 {
		lo, hi = e.UnionSpan(ni, int(ev.seat[pa]))
	} else if ni == ev.pivot {
		lo, hi = ev.plo, ev.phi
	}
	for j := lo; j < hi && !ev.stopped(); j++ {
		ev.seat[ni] = j
		p := ev.scratchAt(&ev.zscratch, k, acc.cnt)
		copy(p.st, acc.st)
		ev.crossScalar(p, &ev.own[ni][j])
		ev.walk(e, k+1, p)
	}
}

// row renders the aggregate p of the group the zone is seated on.
func (ev *aggEval) row(e *Enc, p *partial) AggRow {
	row := AggRow{Key: make([]relation.Value, ev.nKey), Vals: make([]int64, len(ev.specs))}
	for _, ni := range ev.zone {
		for _, si := range ev.keysAt[ni] {
			row.Key[si] = e.Vals(ni)[ev.seat[ni]]
		}
	}
	for i, s := range ev.specs {
		switch s.Fn {
		case AggCount:
			row.Vals[i] = p.cnt
		case AggSum:
			row.Vals[i] = p.st[i].sum
		case AggMin, AggMax, AggCountDistinct:
			row.Vals[i] = p.st[i].m
		}
	}
	return row
}
