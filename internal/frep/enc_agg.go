// The aggregation walk: the closed forms of agg.go over value columns and
// offset spans with index arithmetic, and the walk of the group zone that
// turns each combination of zone entries into one row.
package frep

import (
	"context"
	"slices"

	"repro/internal/relation"
)

// Aggregate computes the given aggregates over the represented relation,
// grouped by the groupBy attributes, in one pass over the columns — never
// over the flattening: below the group-by attributes, counts and sums weigh
// entries by tuple counts, and minima, maxima and distinct counts reduce
// one column run. The tree must be lifted for groupBy: every ancestor of a
// node holding a group-by attribute holds one too (fplan.Lift arranges it;
// the query compiler lifts every grouped statement), and any other tree is
// refused with an error. Rows come back sorted by group key. An empty
// representation yields no rows (also for global aggregates, where SQL
// would return one NULL-ish row).
//
// Counts saturate at math.MaxInt64; sums saturate at ±math.MaxInt64 — like
// Count, exact for the paper's workloads and clamped beyond.
func (e *Enc) Aggregate(groupBy []relation.Attribute, specs []AggSpec) ([]AggRow, error) {
	return e.AggregateParallelContext(context.Background(), groupBy, specs, 1)
}

// span crosses into p the aggregate of entries [lo,hi) of node ni, a
// subtree outside the group zone, in closed form.
func (ev *aggEval) span(e *Enc, ni int, lo, hi int32, p *partial) {
	if !ev.checkpoint(hi - lo) {
		ev.weigh(e, ni, lo, hi, p)
		ev.reduce(e, ni, lo, hi, p)
	}
}

// weigh crosses into p the tuple count and the sums of entries [lo,hi) of
// node ni: a sum over an attribute at or below ni is the span's (sumSpan)
// times p's count, any other is scaled by the span's count.
func (ev *aggEval) weigh(e *Enc, ni int, lo, hi int32, p *partial) {
	c := e.countSpan(ni, lo, hi)
	for i, nd := range ev.specNode {
		st := &p.st[i]
		if ev.specs[i].Fn == AggSum && e.under(ni, nd) {
			st.sum = satMulI(e.sumSpan(ni, nd, lo, hi), p.cnt)
		} else {
			st.sum = satMulI(st.sum, c)
		}
	}
	p.cnt = satMul(p.cnt, c)
}

// sumSpan sums the values of node nd over the tuples of entries [lo,hi) of
// ni, nd or an ancestor of it: an entry of nd weighs its value by its
// children's tuple counts, an entry above nd passes up the sum of its child
// over nd times its other children's counts.
func (e *Enc) sumSpan(ni, nd int, lo, hi int32) int64 {
	vals := e.Vals(ni)
	var total int64
	for j := lo; j < hi; j++ {
		s, w := int64(vals[j]), int64(1)
		for _, ci := range e.ti.kids[ni] {
			clo, chi := e.UnionSpan(ci, int(j))
			if e.under(ci, nd) {
				s = e.sumSpan(ci, nd, clo, chi)
			} else {
				w = satMul(w, e.countSpan(ci, clo, chi))
			}
		}
		total = satAddI(total, satMulI(s, w))
	}
	return total
}

// reduce sets p's MIN, MAX and COUNT DISTINCT states over attributes at or
// below entries [lo,hi) of node ni. No union below a root is empty, so every
// value in the attribute's column run beneath the span is in one of its
// tuples, and each state is a reduction of that run.
func (ev *aggEval) reduce(e *Enc, ni int, lo, hi int32, p *partial) {
	for i, nd := range ev.specNode {
		fn := ev.specs[i].Fn
		if fn == AggSum || !e.under(ni, nd) {
			continue
		}
		dlo, dhi := e.below(ni, nd, lo, hi)
		run, st := e.Vals(nd)[dlo:dhi], &p.st[i]
		switch fn {
		case AggMin:
			st.m = int64(slices.Min(run))
		case AggMax:
			st.m = int64(slices.Max(run))
		case AggCountDistinct:
			st.m = ev.countDistinct(run)
		}
	}
}

// countDistinct counts the distinct values of a column run: its length
// when it is strictly increasing (one union), else a sorted copy's in
// ev.buf.
func (ev *aggEval) countDistinct(run []relation.Value) int64 {
	for k := 1; k < len(run); k++ {
		if run[k] <= run[k-1] {
			ev.buf = append(ev.buf[:0], run...)
			slices.Sort(ev.buf)
			return int64(len(slices.Compact(ev.buf)))
		}
	}
	return int64(len(run))
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
// every zone entry below them: the entry's value crossed with the closed
// forms of its child subtrees outside the zone.
func (ev *aggEval) fill(e *Enc, ni int, lo, hi int32) {
	if ev.checkpoint(hi - lo) {
		return
	}
	vals := e.Vals(ni)
	for j := lo; j < hi && ev.err == nil; j++ {
		p := &ev.own[ni][j]
		p.cnt = 1
		for _, ci := range e.ti.kids[ni] {
			if !ev.zoned(ci) {
				clo, chi := e.UnionSpan(ci, int(j))
				ev.span(e, ci, clo, chi, p)
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
	if ev.checkpoint(hi - lo) {
		return
	}
	for j := lo; j < hi && ev.err == nil; j++ {
		ev.seat[ni] = j
		p := ev.scratchAt(k, acc)
		ev.cross(p, &ev.own[ni][j])
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
