// Parallel factorised build: morsel-driven parallelism over the encoded
// representation. The root union of an f-representation concatenates its
// entries in ascending value order, and the fragment below any contiguous
// run of entries is contiguous in every descendant column — so the build
// partitions cleanly by value range: split the pivot root's candidate
// values into M morsels, run the ordinary leapfrog build per morsel into a
// private column builder (each worker sees the same sorted, read-only
// relations, narrowed to its value range), and stitch the builders back
// together with bulk copies and offset rebasing (frep.StitchEnc). One
// worker count of 1 — or a root too small to split — takes today's serial
// path bit for bit.
package fbuild

import (
	"context"
	"sync"

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
// root's value domain into morsels evaluated concurrently. The result is
// structurally identical (frep.Enc.Equal) to BuildEncContext's. workers <= 1
// delegates to the serial build unchanged; cancellation is polled by every
// worker at the same checkpoints as the serial build.
func BuildEncParallelContext(ctx context.Context, rels []*relation.Relation, t *ftree.T, workers int) (*frep.Enc, error) {
	if workers <= 1 {
		return BuildEncContext(ctx, rels, t)
	}
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
	pivot, pivotMine, driver := pickPivot(b, t, states)
	if driver == nil || driver.hi-driver.lo < 2*workers {
		// Nothing worth splitting: a degenerate or tiny root.
		return b.buildAll(t, states)
	}
	ranges := morselRanges(driver, workers*morselsPerWorker)
	if len(ranges) < 2 {
		return b.buildAll(t, states)
	}

	// Workers drain the morsel queue; each morsel gets a private column
	// builder and private copies of the states routed into the pivot
	// subtree (the relations themselves are shared and read-only: they were
	// sorted once above, before any goroutine started). Each morsel builder
	// owns its frames, memo tables included, so a key built in one morsel
	// is built again in the next.
	parts := make([]*frep.EncBuilder, len(ranges))
	errs := make([]error, len(ranges))
	next := make(chan int, len(ranges))
	for mi := range ranges {
		next <- mi
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for mi := range next {
				parts[mi], errs[mi] = buildMorsel(b, t, pivot, pivotMine, ranges[mi])
			}
		}()
	}
	// The main goroutine builds the remaining roots (if any) while the
	// workers chew through the pivot morsels.
	rest, restEmpty, restErr := b.buildRest(t, pivot, states)
	wg.Wait()
	if restErr != nil {
		return nil, restErr
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	total := 0
	for _, p := range parts {
		total += p.Entries(p.Idx(pivot))
	}
	if total == 0 || restEmpty {
		return frep.NewEmptyEnc(t), nil
	}
	return frep.StitchEnc(t, pivot, parts, rest), nil
}

// pickPivot chooses the root to partition: the one whose largest active
// relation range is widest. It returns the pivot, the states routed into
// its subtree, and that driver state (nil if no root has an active state).
func pickPivot(b *builder, t *ftree.T, states []*relState) (*ftree.Node, []*relState, *relState) {
	var pivot *ftree.Node
	var pivotMine []*relState
	var driver *relState
	for _, root := range t.Roots {
		ri := b.pre[root]
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
		if best != nil && (driver == nil || best.hi-best.lo > driver.hi-driver.lo) {
			pivot, pivotMine, driver = root, mine, best
		}
	}
	return pivot, pivotMine, driver
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
// ordinary encoded leapfrog build into a fresh column builder and frames.
func buildMorsel(shared *builder, t *ftree.T, pivot *ftree.Node, mine []*relState, r valRange) (*frep.EncBuilder, error) {
	wb := &builder{tree: t, pre: shared.pre, sub: shared.sub, memo: shared.memo, ctx: shared.ctx,
		eb: frep.NewEncBuilder(t), frames: make([]frame, len(shared.frames))}
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
	ri := wb.eb.Idx(pivot)
	wb.buildUnionEnc(ri, clones)
	wb.eb.CloseUnion(ri)
	wb.report()
	if wb.err != nil {
		return nil, wb.err
	}
	return wb.eb, nil
}

// buildRest builds every root except pivot (every root, when pivot is nil)
// into the builder's own column builder, serially on the caller's
// goroutine, and reports whether any of them came up empty. With a single
// root and a pivot it returns a builder whose columns StitchEnc never reads.
func (b *builder) buildRest(t *ftree.T, pivot *ftree.Node, states []*relState) (*frep.EncBuilder, bool, error) {
	b.eb = frep.NewEncBuilder(t)
	empty := false
	for _, root := range t.Roots {
		if root == pivot {
			continue
		}
		ri := b.pre[root]
		var mine []*relState
		for _, st := range states {
			if len(st.pres) > 0 && b.under(st.pres[0], ri) {
				mine = append(mine, st)
			}
		}
		n := b.buildUnionEnc(ri, mine)
		b.eb.CloseUnion(ri)
		if b.err != nil {
			return nil, false, b.err
		}
		if n == 0 {
			empty = true
		}
	}
	b.report()
	return b.eb, empty, nil
}

// buildAll finishes a build serially from already-prepared states — the
// fallback when partitioning is not worthwhile.
func (b *builder) buildAll(t *ftree.T, states []*relState) (*frep.Enc, error) {
	eb, empty, err := b.buildRest(t, nil, states)
	if err != nil {
		return nil, err
	}
	if empty {
		return frep.NewEmptyEnc(t), nil
	}
	return eb.Finish(), nil
}
