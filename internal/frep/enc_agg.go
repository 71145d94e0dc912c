// The aggregation walk: the algebraic evaluator of agg.go — unions add
// partials, products multiply counts and cross-combine sums — driven over
// value columns and offset spans with index arithmetic.
package frep

import (
	"context"

	"repro/internal/relation"
)

// Aggregate computes the given aggregates over the represented relation,
// grouped by the groupBy attributes, in one pass over the columns — never
// over the flattening. Rows come back sorted by group key. An empty
// representation yields no rows (also for global aggregates, where SQL would
// return one NULL-ish row).
//
// Counts saturate at math.MaxInt64; sums saturate at ±math.MaxInt64 — like
// Count, exact for the paper's workloads and clamped beyond.
func (e *Enc) Aggregate(groupBy []relation.Attribute, specs []AggSpec) ([]AggRow, error) {
	return e.AggregateParallelContext(context.Background(), groupBy, specs, 1)
}

// foldRoots folds every root union of e except skip (-1: none), in root
// order, into the scalar partial and the keyed partials cur, and returns the
// updated keyed partials. Roots are independent factors, so partials cross.
// Subtrees without group attributes need no key bookkeeping: they fold into
// the scalar partial (and, without aggregated attributes either, into a
// bare count). The group zone alone pays for maps.
func (ev *aggEval) foldRoots(e *Enc, skip int, scalar *partial, cur map[string]*partial) map[string]*partial {
	for _, ri := range e.ti.roots {
		if ri == skip {
			continue
		}
		lo, hi := int32(0), int32(e.NumEntries(ri))
		if !ev.groupBelow[ri] {
			ev.crossScalar(scalar, ev.encScalarSpan(e, ri, lo, hi, 0))
		} else if m := ev.encSpan(e, ri, lo, hi); cur == nil {
			cur = m
		} else {
			cur = ev.cross(cur, m)
		}
	}
	return cur
}

// encScalarSpan aggregates entries [lo,hi) of node ni — a subtree holding
// no group attribute — into a single partial: no maps, no keys, no
// allocation per entry. The returned partial lives in the depth-d scratch
// slot; the caller must consume it before the next encScalarSpan call at
// that depth. Distinct sets skip the per-entry work: the values of a
// descendant below a run of entries are one contiguous run of its column,
// so the top of the scalar zone (d == 0) reads each set off the arena —
// as a view when the run is one union, sorted and distinct already.
func (ev *aggEval) encScalarSpan(e *Enc, ni int, lo, hi int32, d int) *partial {
	if !ev.specBelow[ni] {
		return ev.scratchAt(&ev.uscratch, d, e.countSpan(ni, lo, hi))
	}
	total := ev.scratchAt(&ev.uscratch, d, 0)
	for j := lo; j < hi && !ev.stopped(); j++ {
		ev.add(total, ev.encScalarEntry(e, ni, j, d))
	}
	if d > 0 {
		return total
	}
	for i, nd := range ev.setNode {
		if ni <= nd && nd < e.ti.sub[ni] {
			dlo, dhi := e.below(ni, nd, lo, hi)
			total.st[i].set = distinctIn(e.Vals(nd)[dlo:dhi])
		}
	}
	return total
}

// encScalarEntry aggregates one entry (absolute index j) of node ni.
func (ev *aggEval) encScalarEntry(e *Enc, ni int, j int32, d int) *partial {
	p := ev.scratchAt(&ev.escratch, d, 1)
	for _, ci := range e.ti.kids[ni] {
		clo, chi := e.UnionSpan(ci, int(j))
		ev.crossScalar(p, ev.encScalarSpan(e, ci, clo, chi, d+1))
	}
	ev.applyNode(p, ni, e.Vals(ni)[j], nil)
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

// encSpan aggregates entries [lo,hi) of node ni (one union of the group
// zone), keyed by the group slots fixed inside the subtree.
func (ev *aggEval) encSpan(e *Enc, ni int, lo, hi int32) map[string]*partial {
	out := make(map[string]*partial, 1)
	for j := lo; j < hi && !ev.stopped(); j++ {
		for k, p := range ev.encEntry(e, ni, j) {
			if q, ok := out[k]; ok {
				ev.add(q, p)
			} else {
				out[k] = p
			}
		}
	}
	return out
}

// encEntry aggregates one group-zone entry: the product of its child
// unions (scalar for group-free children, keyed for the rest), finished by
// foldEntry.
func (ev *aggEval) encEntry(e *Enc, ni int, j int32) map[string]*partial {
	scalar := ev.unit()
	var cur map[string]*partial
	for _, ci := range e.ti.kids[ni] {
		clo, chi := e.UnionSpan(ci, int(j))
		if !ev.groupBelow[ci] {
			ev.crossScalar(scalar, ev.encScalarSpan(e, ci, clo, chi, 0))
		} else if m := ev.encSpan(e, ci, clo, chi); cur == nil {
			cur = m
		} else {
			cur = ev.cross(cur, m)
		}
	}
	return ev.foldEntry(cur, scalar, e, ni, j)
}
