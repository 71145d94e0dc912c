// The build driver: morsel-driven parallelism over the encoded
// representation. The root union of an f-representation concatenates its
// entries in ascending value order, and the fragment below any contiguous
// run of entries is contiguous in every descendant column — so the build
// partitions cleanly by value range: split the pivot root's candidate
// values into M morsels, run the ordinary leapfrog build per morsel into a
// private column builder (each worker sees the same sorted, read-only
// relations, narrowed to its value range), and pack the builders into one
// arena with bulk copies and offset rebasing (frep.EncBuilder.Finish). A
// serial build — one worker, or a root too small to split — is one
// unbounded morsel of the same driver.
package fbuild

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/frep"
	"repro/internal/ftree"
	"repro/internal/relation"
)

// morselsPerWorker oversizes the morsel count relative to the worker count
// so that skewed value distributions (a few heavy root values) still load
// all workers; morsels are handed out dynamically.
const morselsPerWorker = 4

// valRange is one morsel's half-open value interval at the pivot root.
// Missing bounds mean "from the beginning" / "to the end".
type valRange struct {
	lo, hi       relation.Value
	hasLo, hasHi bool
}

// BuildEncParallel is BuildEnc evaluated by up to `workers` goroutines; see
// BuildEncParallelContext.
func BuildEncParallel(rels []*relation.Relation, t *ftree.T, workers int) (*frep.Enc, error) {
	return BuildEncParallelContext(context.Background(), rels, t, workers)
}

// BuildEncParallelContext evaluates the natural join encoded by t directly
// into the arena-backed columnar representation, partitioning the pivot
// root's value domain into morsels that up to workers goroutines build
// concurrently. It is the one build driver: BuildEnc calls it with one
// worker, and one worker or a root under two entries per worker makes one
// unbounded morsel. The result is the same (frep.Enc.Equal) at every worker
// count; cancellation is polled by every worker at the same checkpoints.
func BuildEncParallelContext(ctx context.Context, rels []*relation.Relation, t *ftree.T, workers int) (*frep.Enc, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b := newBuilder(ctx, t)
	states, err := b.newStates(rels)
	if err != nil {
		return nil, err
	}

	// Route states to roots and pick the pivot: the root whose driver
	// relation (largest active range) gives the most entries to split.
	routed, pivot, driver := pickPivot(b, t, states)
	var ranges []valRange
	switch {
	case driver == nil: // no root has an active state: buildRest takes them all
	case workers > 1 && driver.hi-driver.lo >= 2*workers:
		ranges = morselRanges(driver, workers*morselsPerWorker)
	default:
		ranges = []valRange{{}}
	}

	// Morsels go in turn to workers-1 goroutines and to the calling one,
	// which first builds the remaining roots (if any). Each morsel
	// gets a private column builder and private copies of the states
	// routed into the pivot subtree (the relations themselves are shared
	// and read-only: they were sorted once above, before any goroutine
	// started). Each morsel builder owns its frames, memo tables included,
	// so a key built in one morsel is built again in the next.
	parts := make([]*frep.EncBuilder, len(ranges))
	errs := make([]error, len(ranges))
	var next atomic.Int64
	drain := func() {
		for mi := next.Add(1) - 1; mi < int64(len(ranges)); mi = next.Add(1) - 1 {
			parts[mi], errs[mi] = buildMorsel(b, t, t.Roots[pivot], routed[pivot], ranges[mi])
		}
	}
	var wg sync.WaitGroup
	for range min(workers, len(ranges)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	rest, err := b.buildRest(t, pivot, routed)
	drain()
	wg.Wait()
	for _, e := range append(errs, err) {
		if e != nil {
			return nil, e
		}
	}
	if e := rest.Finish(parts...); !e.IsEmpty() {
		return e, nil
	}
	return frep.NewEmptyEnc(t), nil
}

// pickPivot routes the states to the roots (routed[k] holds those under
// t.Roots[k]) and chooses the root to partition: the one whose largest
// active relation range is widest. It returns that root's index in
// t.Roots and its driver state (-1 and nil if no root has an active state).
func pickPivot(b *builder, t *ftree.T, states []*relState) (routed [][]*relState, pivot int, driver *relState) {
	pivot = -1
	for k, root := range t.Roots {
		ri := b.eb.Idx(root)
		var mine []*relState
		var best *relState
		for _, st := range states {
			if len(st.pres) > 0 && b.under(st.pres[0], ri) {
				mine = append(mine, st)
				if st.pres[0] == ri && (best == nil || st.hi-st.lo > best.hi-best.lo) {
					best = st
				}
			}
		}
		routed = append(routed, mine)
		if best != nil && (driver == nil || best.hi-best.lo > driver.hi-driver.lo) {
			pivot, driver = k, best
		}
	}
	return routed, pivot, driver
}

// morselRanges splits the driver's sorted root-class column into up to m
// half-open value ranges with (roughly) equal tuple counts. Duplicate
// boundary values collapse, so heavy values never straddle two morsels.
func morselRanges(driver *relState, m int) []valRange {
	col := driver.cols[0][0]
	n := driver.hi - driver.lo
	var bounds []relation.Value
	for j := 1; j < m; j++ {
		v := driver.rel.Tuples[driver.lo+j*n/m][col]
		if len(bounds) == 0 || v > bounds[len(bounds)-1] {
			bounds = append(bounds, v)
		}
	}
	out := make([]valRange, 0, len(bounds)+1)
	for i := 0; i <= len(bounds); i++ {
		r := valRange{}
		if i > 0 {
			r.lo, r.hasLo = bounds[i-1], true
		}
		if i < len(bounds) {
			r.hi, r.hasHi = bounds[i], true
		}
		out = append(out, r)
	}
	return out
}

// buildMorsel runs one morsel: clone the pivot-subtree states, narrow the
// states active at the pivot to the morsel's value range, and run the
// ordinary encoded leapfrog build into a fresh column builder and frames,
// leaving the pivot's union open.
func buildMorsel(shared *builder, t *ftree.T, pivot *ftree.Node, mine []*relState, r valRange) (*frep.EncBuilder, error) {
	wb := &builder{tree: t, memo: shared.memo, ctx: shared.ctx,
		eb: shared.eb.Fresh(), frames: make([]frame, len(shared.frames))}
	clones := make([]*relState, len(mine))
	for i, st := range mine {
		c := *st
		if c.nodes[0] == pivot {
			col := c.cols[0][0]
			if r.hasLo {
				c.lo = c.seek(col, r.lo, c.lo, c.hi)
			}
			if r.hasHi {
				c.hi = c.seek(col, r.hi, c.lo, c.hi)
			}
		}
		clones[i] = &c
	}
	wb.buildUnionEnc(wb.eb.Idx(pivot), clones) // Finish closes the pivot's union
	wb.report()
	if wb.err != nil {
		return nil, wb.err
	}
	return wb.eb, nil
}

// buildRest builds every root but t.Roots[pivot] from the states routed to
// it into the builder's own column builder, serially on the caller's
// goroutine.
func (b *builder) buildRest(t *ftree.T, pivot int, routed [][]*relState) (*frep.EncBuilder, error) {
	for k, root := range t.Roots {
		if k == pivot {
			continue
		}
		ri := b.eb.Idx(root)
		b.buildUnionEnc(ri, routed[k])
		b.eb.CloseUnion(ri)
		if b.err != nil {
			return nil, b.err
		}
	}
	b.report()
	return b.eb, nil
}
