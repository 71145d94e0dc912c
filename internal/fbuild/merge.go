// Incremental maintenance of encoded f-representations. MergeEnc folds a
// set of per-relation deltas into an existing arena-backed representation
// without rebuilding the world: the root union concatenates its entries in
// ascending value order and the fragment below any contiguous entry run is
// contiguous in every descendant column, so untouched runs bulk-copy
// (frep.EncBuilder.CopyEntries) and only the root values actually touched
// by a delta are re-derived with the ordinary leapfrog build, narrowed to
// one value — the same narrowing the morsel-parallel build applies per
// value range. Roots no delta can reach copy wholesale; a delta on a
// relation that is dormant at its root (no root-class attribute) can affect
// every entry, so the merge declines and the caller rebuilds — with the
// morsel-parallel build, which a rebuild in here would not be.
package fbuild

import (
	"context"
	"sort"

	"repro/internal/frep"
	"repro/internal/ftree"
	"repro/internal/relation"
)

// RelDelta is the net change applied to one input relation since the
// representation being merged into was built: tuples added and removed,
// under set semantics. Both lists may be over-approximate in the values
// they touch (a delta tuple that changed nothing costs one narrowed
// rebuild of its root value), but the rels passed alongside must be the
// exact post-delta snapshots.
type RelDelta struct {
	Adds []relation.Tuple
	Dels []relation.Tuple
}

func (d RelDelta) empty() bool { return len(d.Adds) == 0 && len(d.Dels) == 0 }

// MergeEnc folds deltas into old, producing the representation BuildEnc
// would build from rels over t. rels are the post-delta snapshots (sorted
// in path order or sortable, exactly as for BuildEnc), t must have the same
// pre-order shape as old.Tree (a fresh clone of the statement tree), and
// deltas[i] describes how rels[i] differs from the snapshot old was built
// from. The second return is false when the merge is structurally
// inapplicable (old empty, shape mismatch, or a changed relation not
// anchored at its root) — the caller should fall back to a full build; the
// cost threshold for that fallback is the caller's.
func MergeEnc(rels []*relation.Relation, t *ftree.T, old *frep.Enc, deltas []RelDelta) (*frep.Enc, bool, error) {
	return MergeEncContext(context.Background(), rels, t, old, deltas)
}

// MergeEncContext is MergeEnc with cancellation, polled at the same
// checkpoints as the full build.
func MergeEncContext(ctx context.Context, rels []*relation.Relation, t *ftree.T, old *frep.Enc, deltas []RelDelta) (*frep.Enc, bool, error) {
	if old == nil || old.IsEmpty() || len(rels) != len(deltas) {
		return nil, false, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	b := newBuilder(ctx, t)
	if len(b.in) != old.NodeCount() {
		return nil, false, nil
	}
	states := make([]*relState, 0, len(rels))
	for i, r := range rels {
		st, err := b.newState(r)
		if err != nil {
			return nil, false, err
		}
		// A changed relation dormant at its root (first class below it)
		// joins under every root value, so the incremental walk has no
		// touched set: decline before copying anything.
		if !deltas[i].empty() && len(st.nodes) > 0 && t.ParentOf(st.nodes[0]) != nil {
			return nil, false, nil
		}
		states = append(states, st)
	}
	b.eb = frep.NewEncBuilder(t)
	empty := false
	for k, root := range t.Roots {
		ri := b.eb.Idx(root)
		oldRi := old.Roots()[k]
		var mine []*relState
		changed := false
		var touched []relation.Value
		for i, st := range states {
			if len(st.nodes) == 0 || !b.inSubtree(st.nodes[0], root) {
				continue
			}
			mine = append(mine, st)
			if deltas[i].empty() {
				continue
			}
			changed = true
			cols := st.cols[0] // root's class: changed relations are anchored
			for _, lists := range [][]relation.Tuple{deltas[i].Adds, deltas[i].Dels} {
				for _, tp := range lists {
					for _, c := range cols {
						touched = append(touched, tp[c])
					}
				}
			}
		}
		n := 0
		switch {
		case !changed:
			// Nothing under this root moved: one bulk copy of the whole
			// subtree (a root has exactly one union).
			b.eb.CopyUnions(old, oldRi, ri, 0, 1)
			n = old.NumEntries(oldRi)
		default:
			sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })
			touched = dedupValues(touched)
			n = b.mergeRoot(root, ri, old, oldRi, mine, touched)
			b.eb.CloseUnion(ri)
		}
		if b.err != nil {
			return nil, false, b.err
		}
		if n == 0 {
			empty = true
		}
	}
	if empty {
		return frep.NewEmptyEnc(t), true, nil
	}
	return b.eb.Finish(), true, nil
}

// mergeRoot emits root's (single) union by interleaving bulk copies of the
// untouched old entry runs with per-value leapfrog rebuilds of the touched
// values, in ascending value order. Returns the number of entries emitted;
// the union is left open for the caller to close.
func (b *builder) mergeRoot(root *ftree.Node, ri int, old *frep.Enc, oldRi int, mine []*relState, touched []relation.Value) int {
	oldVals := old.Vals(oldRi)
	count, oi := 0, 0
	for _, v := range touched {
		// Copy the untouched run of old entries below v (values within a
		// union are strictly increasing, so the run ends at the first >= v).
		j := oi + sort.Search(len(oldVals)-oi, func(k int) bool { return oldVals[oi+k] >= v })
		if j > oi {
			b.eb.CopyEntries(old, oldRi, ri, oi, j)
			count += j - oi
		}
		oi = j
		if oi < len(oldVals) && oldVals[oi] == v {
			oi++ // the rebuild below supersedes the old entry for v
		}
		// Re-derive value v from the post-delta snapshots: the ordinary
		// build narrowed to [v, v+1) emits zero entries (v died) or one.
		count += b.buildUnionEnc(root, ri, narrowStates(mine, root, v), 0)
		if b.err != nil {
			return count
		}
	}
	if oi < len(oldVals) {
		b.eb.CopyEntries(old, oldRi, ri, oi, len(oldVals))
		count += len(oldVals) - oi
	}
	return count
}

// narrowStates clones the states routed into root's subtree, restricting
// those anchored at root to the single value v — the per-value analogue of
// buildMorsel's range narrowing. Clones are fresh per call because the
// build mutates traversal state.
func narrowStates(mine []*relState, root *ftree.Node, v relation.Value) []*relState {
	clones := make([]*relState, len(mine))
	for i, st := range mine {
		c := *st
		if c.nodes[0] == root {
			col := c.cols[0][0]
			c.lo = c.seek(col, v, c.lo, c.hi)
			c.hi = c.seek(col, v+1, c.lo, c.hi)
		}
		clones[i] = &c
	}
	return clones
}

// dedupValues removes adjacent duplicates from a sorted value slice.
func dedupValues(vs []relation.Value) []relation.Value {
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// SortIndex returns the column permutation the path sort imposes on r over
// t: the relation's class columns in root-to-leaf path order, followed by
// the remaining columns in schema order — exactly the comparator
// Relation.SortBy uses after SortFor. Callers maintaining sorted snapshots
// incrementally (merging net deltas into a statement's inputs) sort and
// merge by this index so the shared slices never need re-sorting.
func SortIndex(r *relation.Relation, t *ftree.T) ([]int, error) {
	b := newBuilder(context.Background(), t)
	st, err := b.newState(r)
	if err != nil {
		return nil, err
	}
	idx := make([]int, 0, len(r.Schema))
	seen := make([]bool, len(r.Schema))
	for _, cols := range st.cols {
		for _, c := range cols {
			idx = append(idx, c)
			seen[c] = true
		}
	}
	for c := range r.Schema {
		if !seen[c] {
			idx = append(idx, c)
		}
	}
	return idx, nil
}
