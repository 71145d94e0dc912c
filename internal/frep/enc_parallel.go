// Parallel evaluation over the encoded representation. Encs are immutable,
// so concurrent readers need no synchronisation; the unit of parallelism is
// a contiguous run of entries of one root's union — the same partitioning
// the parallel build uses — and partial results combine with the evaluator's
// own union/product combinators (unions add partials, products cross them).
package frep

import (
	"sync"

	"repro/internal/relation"
)

// aggChunk is one worker's share of the pivot root: entries [lo, hi).
type aggChunk struct {
	lo, hi int32
	// Exactly one of the two is set, depending on whether the pivot subtree
	// holds group attributes.
	scalar *partial
	keyed  map[string]*partial
}

// AggregateParallel is Aggregate evaluated by p workers: the entries of the
// largest root union split into contiguous chunks, each worker folds its
// chunk with a private evaluator, and the per-chunk partials combine with
// the additive union combinator before the remaining roots (if any) are
// folded in serially. p <= 1, empty representations and roots too small to
// split all fall back to the serial pass; results are identical to
// Aggregate in every case.
func (e *Enc) AggregateParallel(groupBy []relation.Attribute, specs []AggSpec, p int) ([]AggRow, error) {
	pivot, n := e.largestRoot()
	if p <= 1 || e.IsEmpty() || int(n) < 2*p {
		return e.Aggregate(groupBy, specs)
	}
	ev, err := newAggEval(e.Tree, groupBy, specs)
	if err != nil {
		return nil, err
	}
	pivotNode := e.ti.nodes[pivot]

	chunks := make([]*aggChunk, p)
	for i := range chunks {
		chunks[i] = &aggChunk{lo: chunkBound(n, i, p), hi: chunkBound(n, i+1, p)}
	}
	var wg sync.WaitGroup
	errs := make([]error, p)
	for i, c := range chunks {
		wg.Add(1)
		go func(i int, c *aggChunk) {
			defer wg.Done()
			// A private evaluator per worker: the scratch accumulators and
			// groupBelow/specBelow tables are not shareable.
			wev, werr := newAggEval(e.Tree, groupBy, specs)
			if werr != nil {
				errs[i] = werr
				return
			}
			if !wev.groupBelow[pivotNode] {
				// Detach the result from the worker's scratch slot: the
				// evaluator dies with the goroutine, so its sets transfer.
				s := wev.encScalarSpan(e, pivot, c.lo, c.hi, 0)
				c.scalar = &partial{cnt: s.cnt, st: append([]aggState(nil), s.st...)}
			} else {
				c.keyed = wev.encSpan(e, pivot, c.lo, c.hi)
			}
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Combine the chunks — they partition one union, so partials add.
	scalar := ev.unit()
	var cur map[string]*partial
	if !ev.groupBelow[pivotNode] {
		total := &partial{st: make([]aggState, len(ev.specs))}
		for _, c := range chunks {
			ev.add(total, c.scalar)
		}
		ev.crossScalar(scalar, total)
	} else {
		cur = chunks[0].keyed
		for _, c := range chunks[1:] {
			for k, q := range c.keyed {
				if pp, ok := cur[k]; ok {
					ev.add(pp, q)
				} else {
					cur[k] = q
				}
			}
		}
	}

	// Remaining roots fold in serially, exactly as in Aggregate.
	return ev.finishRows(ev.foldRoots(e, pivot, scalar, cur), scalar), nil
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
