// Parallel evaluation over the encoded representation. Encs are immutable,
// so concurrent readers need no synchronisation; the unit of parallelism is
// a contiguous run of entries of one root's union — the same partitioning
// the parallel build uses — and partial results combine with the evaluator's
// own union/product combinators (unions add partials, products cross them).
package frep

import (
	"context"
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

// AggregateParallel is AggregateParallelContext without cancellation.
func (e *Enc) AggregateParallel(groupBy []relation.Attribute, specs []AggSpec, p int) ([]AggRow, error) {
	return e.AggregateParallelContext(context.Background(), groupBy, specs, p)
}

// AggregateParallelContext is Aggregate evaluated by p workers: the entries
// of the largest root union split into contiguous chunks, each worker folds
// its chunk with private scratch over the shared per-node tables, and the
// per-chunk partials combine with the additive union combinator before the
// remaining roots (if any) are folded in serially. p <= 1, empty
// representations and roots too small to split all take the serial pass;
// results are identical to Aggregate in every case. Every pass polls ctx
// once per 1024 entries and aborts with its error.
func (e *Enc) AggregateParallelContext(ctx context.Context, groupBy []relation.Attribute, specs []AggSpec, p int) ([]AggRow, error) {
	ev, err := newAggEval(ctx, e, groupBy, specs)
	if err != nil || e.IsEmpty() {
		return nil, err
	}
	scalar := ev.unit()
	var cur map[string]*partial
	pivot, n := e.largestRoot()
	if p <= 1 || int(n) < 2*p {
		pivot = -1
	} else if cur, err = ev.foldChunks(e, pivot, n, p, scalar); err != nil {
		return nil, err
	}
	// Remaining roots fold in serially.
	cur = ev.foldRoots(e, pivot, scalar, cur)
	if ev.err != nil {
		return nil, ev.err
	}
	return ev.finishRows(cur, scalar), nil
}

// foldChunks folds the n entries of root pivot with p workers into scalar
// and the returned keyed partials. ev must be fresh: each worker runs on a
// copy, which shares its read-only tables and owns its scratch.
func (ev *aggEval) foldChunks(e *Enc, pivot int, n int32, p int, scalar *partial) (map[string]*partial, error) {
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
			wev := *ev
			if !wev.groupBelow[pivot] {
				// The worker's scratch dies with it, so its slot is the
				// chunk's result.
				c.scalar = wev.encScalarSpan(e, pivot, c.lo, c.hi, 0)
			} else {
				c.keyed = wev.encSpan(e, pivot, c.lo, c.hi)
			}
			errs[i] = wev.err
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Combine the chunks — they partition one union, so partials add.
	if !ev.groupBelow[pivot] {
		total := &partial{st: make([]aggState, len(ev.specs))}
		for _, c := range chunks {
			ev.add(total, c.scalar)
		}
		ev.crossScalar(scalar, total)
		return nil, nil
	}
	cur := chunks[0].keyed
	for _, c := range chunks[1:] {
		for k, q := range c.keyed {
			if pp, ok := cur[k]; ok {
				ev.add(pp, q)
			} else {
				cur[k] = q
			}
		}
	}
	return cur, nil
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
