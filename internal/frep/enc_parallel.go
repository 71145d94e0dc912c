// Parallel evaluation over the encoded representation. Encs are immutable,
// so concurrent readers need no synchronisation; the unit of parallelism is
// a contiguous run of entries of one root's union — the same partitioning
// the parallel build uses. Chunks of a root outside the group zone add their
// counts and sums, and the root's minima, maxima and distinct counts reduce
// its whole column runs once; chunks of a zone root hold disjoint groups, so
// their rows concatenate.
package frep

import (
	"cmp"
	"context"
	"slices"
	"sync"

	"repro/internal/relation"
)

// AggregateParallel is AggregateParallelContext without cancellation.
func (e *Enc) AggregateParallel(groupBy []relation.Attribute, specs []AggSpec, p int) ([]AggRow, error) {
	return e.AggregateParallelContext(context.Background(), groupBy, specs, p)
}

// AggregateParallelContext is Aggregate evaluated by p workers, over a tree
// lifted for groupBy (fplan.Lift) like Aggregate's: any other tree is
// refused. The entries of the largest root union split into contiguous
// chunks and each worker takes one, with private scratch over the shared
// per-node tables. A root outside the group zone weighs each chunk's count
// and sums, which add up, and reduces its whole column runs once; a zone
// root's chunks each walk their own groups, and the rows concatenate. The
// other roots are aggregated serially. p <= 1, empty representations and
// roots too small to split all take the serial pass; results are identical
// to Aggregate in every case. Every pass polls ctx once per 1024 entries it
// spans and aborts with its error.
func (e *Enc) AggregateParallelContext(ctx context.Context, groupBy []relation.Attribute, specs []AggSpec, p int) ([]AggRow, error) {
	ev, err := newAggEval(ctx, e, groupBy, specs)
	if err != nil || e.IsEmpty() {
		return nil, err
	}
	pivot, n := e.largestRoot()
	if p <= 1 || int(n) < 2*p {
		pivot = -1
	}
	// Roots outside the zone cross into one scalar partial, starting from
	// the nullary product's. Zone roots fill their own partials; a zone
	// pivot's chunks fill theirs below.
	scalar := &partial{cnt: 1, st: make([]aggState, len(specs))}
	ev.allocOwn(e)
	for _, ri := range e.ti.roots {
		switch {
		case ev.zoned(ri) && ri == pivot:
		case ev.zoned(ri):
			ev.fill(e, ri, 0, int32(e.NumEntries(ri)))
		case ri == pivot:
			parts := make([]partial, p)
			ev.chunks(n, p, func(i int, w *aggEval, lo, hi int32) {
				parts[i] = partial{cnt: 1, st: make([]aggState, len(specs))}
				if !w.checkpoint(hi - lo) {
					w.weigh(e, ri, lo, hi, &parts[i])
				}
			})
			root := &parts[0]
			for _, q := range parts[1:] {
				root.cnt = satAdd(root.cnt, q.cnt)
				for i, s := range q.st {
					root.st[i].sum = satAddI(root.st[i].sum, s.sum)
				}
			}
			ev.reduce(e, ri, 0, n, root)
			ev.cross(scalar, root)
		default:
			ev.span(e, ri, 0, int32(e.NumEntries(ri)), scalar)
		}
	}
	// One row per combination of zone entries.
	var rows []AggRow
	if pivot >= 0 && ev.zoned(pivot) {
		parts := make([][]AggRow, p)
		ev.chunks(n, p, func(i int, w *aggEval, lo, hi int32) {
			w.fill(e, pivot, lo, hi)
			w.pivot, w.plo, w.phi = pivot, lo, hi
			w.walk(e, 0, scalar)
			parts[i] = w.rows
		})
		rows = slices.Concat(parts...)
	} else {
		ev.walk(e, 0, scalar)
		rows = ev.rows
	}
	if ev.err != nil {
		return nil, ev.err
	}
	slices.SortFunc(rows, func(a, b AggRow) int { return slices.Compare(a.Key, b.Key) })
	return rows, nil
}

// allocOwn makes the own partials of every zone entry.
func (ev *aggEval) allocOwn(e *Enc) {
	ev.own = make([][]partial, len(e.ti.nodes))
	for _, ni := range ev.zone {
		n, ns := e.NumEntries(ni), len(ev.specs)
		ps, st := make([]partial, n), make([]aggState, n*ns)
		for j := range ps {
			ps[j].st = st[j*ns : (j+1)*ns : (j+1)*ns]
		}
		ev.own[ni] = ps
	}
}

// chunks runs f on p workers, the i-th over the i-th of p contiguous chunks
// of [0, n). Each worker is a copy of ev that shares its read-only tables
// and own partials and owns its scratch, seats and rows; the first worker
// error becomes ev's.
func (ev *aggEval) chunks(n int32, p int, f func(i int, w *aggEval, lo, hi int32)) {
	ws := make([]aggEval, p)
	var wg sync.WaitGroup
	for i := range ws {
		w := &ws[i]
		*w = *ev
		w.scratch, w.buf, w.rows = nil, nil, nil
		w.seat = make([]int32, len(ev.seat))
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i, w, chunkBound(n, i, p), chunkBound(n, i+1, p))
		}()
	}
	wg.Wait()
	for i := range ws {
		ev.err = cmp.Or(ev.err, ws[i].err)
	}
}

// chunkBound returns the i-th of p boundaries over [0, n) — in 64-bit, since
// n*i overflows int32 already for the column sizes the arena allows.
func chunkBound(n int32, i, p int) int32 {
	return int32(int64(n) * int64(i) / int64(p))
}

// largestRoot returns the pre-order index of the root with the most entries
// (the most profitable split target) and its entry count.
func (e *Enc) largestRoot() (ri int, n int32) {
	ri = e.ti.roots[0]
	for _, r := range e.ti.roots {
		if c := int32(e.NumEntries(r)); c > n {
			ri, n = r, c
		}
	}
	return ri, n
}
