// Data-level implementations of the f-plan operators over the arena-backed
// columnar representation. ApplyEnc takes a representation and returns a
// fresh one (inputs are never mutated — arenas are immutable and cheap to
// share).
//
// Every operator rewrites offset spans: everything off the root→target path
// is bulk-copied (contiguous column ranges), and only the path itself is
// re-emitted entry by entry so that emptiness cascades. Swap regroups each
// A-union with the priority queue of Figure 4 over its B-child spans,
// absorb restricts the B-unions by binary search while re-emitting the A→B
// chain, and lift is a sequence of swaps.

package fplan

import (
	"fmt"
	"sort"

	"repro/internal/frep"
	"repro/internal/ftree"
	"repro/internal/relation"
)

// ApplyEnc applies op to an encoded representation, returning the
// transformed representation. The input is left untouched.
func ApplyEnc(op Op, e *frep.Enc) (*frep.Enc, error) {
	if e.IsEmpty() {
		// Data-free: replay the structural change only.
		nt := e.Tree.Clone()
		if err := op.ApplyTree(nt); err != nil {
			return nil, err
		}
		return frep.NewEmptyEnc(nt), nil
	}
	switch o := op.(type) {
	case SelectConst:
		return selectConstEnc(o, e)
	case SelectFn:
		return selectFnEnc(o, e)
	case Merge:
		return mergeEnc(o, e)
	case Absorb:
		return absorbEnc(o, e)
	case PushUp:
		return pushUpEnc(o, e)
	case Normalise:
		return normaliseEnc(e)
	case Swap:
		return swapEnc(o, e)
	case Lift:
		return liftEnc(o, e)
	case Project:
		return projectEnc(o, e)
	case Distinct:
		return frep.DedupEnc(e), nil
	}
	return nil, fmt.Errorf("fplan: no data-level implementation of operator %T", op)
}

// ProductEnc combines two encoded representations over disjoint attribute
// sets into their Cartesian product (Section 3.2): the forest of both
// trees, the concatenation of both root products. Time linear in the input
// sizes (bulk column copies).
func ProductEnc(a, b *frep.Enc) (*frep.Enc, error) {
	t, err := productTree(a.Tree.Clone(), b.Tree.Clone())
	if err != nil {
		return nil, err
	}
	return frep.ConcatEnc(t, a, b), nil
}

// ------------------------------------------------------------- rewriter

// encRewriter re-emits an encoded representation into a fresh builder,
// customising behaviour at one target node and bulk-copying every subtree
// off the root→target path. Entries on the path whose subtree empties are
// rolled back, and the removal cascades upward; if it reaches a root the
// result is the empty representation.
type encRewriter struct {
	e        *frep.Enc
	b        *frep.EncBuilder
	dt       *ftree.T // the builder's tree
	s2d      []int    // src pre-order index → dst pre-order index
	tni      int      // target src node; -1: the root-level product
	pathNext []int    // per src node: the child index continuing the path, -1 otherwise
	// Exactly one of the two hooks is set. entryFilter keeps/drops the
	// target's own entries (children copied verbatim). products emits the
	// whole child product of target entry u (absolute index; 0 for the
	// root-level product) into the builder, closing the emitted unions, and
	// reports liveness.
	entryFilter func(relation.Value) bool
	products    func(u int) bool
	marks       [][]int32
}

func newEncRewriter(e *frep.Enc, dt *ftree.T, tni int) *encRewriter {
	r := &encRewriter{e: e, b: frep.NewEncBuilder(dt), dt: dt, tni: tni}
	r.s2d = make([]int, e.NodeCount())
	for ni := 0; ni < e.NodeCount(); ni++ {
		r.s2d[ni] = r.b.Idx(dt.NodeOf(e.Node(ni).Attrs[0]))
	}
	r.pathNext = make([]int, e.NodeCount())
	for i := range r.pathNext {
		r.pathNext[i] = -1
	}
	for ni := tni; ni >= 0; {
		p := e.Parent(ni)
		if p < 0 {
			break
		}
		r.pathNext[p] = ni
		ni = p
	}
	return r
}

func (r *encRewriter) markAt(d int) []int32 {
	for len(r.marks) <= d {
		r.marks = append(r.marks, nil)
	}
	return r.marks[d][:0]
}

// run emits every root and returns the finished representation
// (canonicalised to the empty form if the rewrite emptied it).
func (r *encRewriter) run() *frep.Enc {
	if r.tni < 0 {
		// Root-level product: no path to cascade through.
		if !r.products(0) {
			return frep.NewEmptyEnc(r.dt)
		}
	} else {
		for _, ri := range r.e.Roots() {
			dri := r.s2d[ri]
			if ri == r.tni || r.pathNext[ri] >= 0 {
				r.emitUnion(ri, 0, 0)
				r.b.CloseUnion(dri)
			} else {
				r.b.CopyUnions(r.e, ri, dri, 0, 1)
			}
		}
	}
	out := r.b.Finish()
	if out.IsEmpty() {
		return frep.NewEmptyEnc(r.dt)
	}
	return out
}

// emitUnion re-emits union u of on-path node ni; returns entries emitted.
func (r *encRewriter) emitUnion(ni, u, depth int) int {
	e := r.e
	lo, hi := e.UnionSpan(ni, u)
	vals := e.Vals(ni)
	dni := r.s2d[ni]
	target := ni == r.tni
	count := 0
	for j := lo; j < hi; j++ {
		if target && r.entryFilter != nil {
			if !r.entryFilter(vals[j]) {
				continue
			}
			// Surviving target entries copy their children verbatim; the
			// reduction invariant guarantees nothing below can empty.
			r.b.Append(dni, vals[j])
			for _, ci := range e.Kids(ni) {
				r.b.CopyUnions(e, ci, r.s2d[ci], int(j), int(j)+1)
			}
			count++
			continue
		}
		mark := r.b.Mark(dni, r.markAt(depth))
		r.marks[depth] = mark
		r.b.Append(dni, vals[j])
		dead := false
		if target {
			dead = !r.products(int(j))
		} else {
			for _, ci := range e.Kids(ni) {
				if ci == r.pathNext[ni] {
					if r.emitUnion(ci, int(j), depth+1) == 0 {
						dead = true
						break
					}
					r.b.CloseUnion(r.s2d[ci])
				} else {
					r.b.CopyUnions(e, ci, r.s2d[ci], int(j), int(j)+1)
				}
			}
		}
		if dead {
			r.b.Rollback(dni, r.marks[depth])
			continue
		}
		count++
	}
	return count
}

// rewriteProducts re-emits e over the restructured tree nt, handing every
// product of child unions under parent (nil: the root-level product) to
// emit. members are the product's source nodes and u is its union index in
// each member's column (the absolute index of the parent entry; 0 at root
// level). emit writes and closes the product's unions through r.b, mapping
// source to destination nodes with r.s2d, and reports liveness.
func rewriteProducts(e *frep.Enc, nt *ftree.T, parent *ftree.Node, emit func(r *encRewriter, members []int, u int) bool) *frep.Enc {
	pi, members := -1, e.Roots()
	if parent != nil {
		pi = e.NodeIndex(parent)
		members = e.Kids(pi)
	}
	r := newEncRewriter(e, nt, pi)
	r.products = func(u int) bool { return emit(r, members, u) }
	return r.run()
}

// ------------------------------------------------------------ selections

// selectEnc is the filtered re-emit shared by the selections: the unions of
// A's node keep the entries passing keep, with upward cascade.
func selectEnc(e *frep.Enc, a relation.Attribute, keep func(relation.Value) bool) (*frep.Enc, error) {
	sn, err := attrNode(e.Tree, a)
	if err != nil {
		return nil, err
	}
	r := newEncRewriter(e, e.Tree.Clone(), e.NodeIndex(sn))
	r.entryFilter = keep
	return r.run(), nil
}

// selectConstEnc is σ_{AθC}; for equality the node becomes constant and the
// representation re-normalises.
func selectConstEnc(o SelectConst, e *frep.Enc) (*frep.Enc, error) {
	out, err := selectEnc(e, o.A, func(v relation.Value) bool { return o.Op.eval(v, o.C) })
	if err != nil || o.Op != Eq {
		return out, err
	}
	out.Tree.MarkConst(o.A)
	return normaliseEnc(out)
}

// selectFnEnc is σ_{A∈P}: an opaque predicate and no constant marking.
func selectFnEnc(o SelectFn, e *frep.Enc) (*frep.Enc, error) {
	return selectEnc(e, o.A, o.Keep)
}

// ------------------------------------------------- push-up, normalisation

// normaliseEnc is η: find the next push-up on a scratch clone of the tree,
// apply it to tree and data together, repeat until none is left.
func normaliseEnc(e *frep.Enc) (*frep.Enc, error) {
	for {
		steps := e.Tree.Clone().NormaliseSteps()
		if len(steps) == 0 {
			return e, nil
		}
		next, err := ApplyEnc(PushUp{B: steps[0]}, e)
		if err != nil {
			return nil, err
		}
		e = next
	}
}

// pushUpEnc is ψ_B: the B-union of each enclosing product is factored out
// (all copies equal by independence — the first is kept) and the A-entries
// drop their B slot. Everything else bulk-copies.
func pushUpEnc(o PushUp, e *frep.Enc) (*frep.Enc, error) {
	snb, err := attrNode(e.Tree, o.B)
	if err != nil {
		return nil, err
	}
	sna := e.Tree.ParentOf(snb)
	if sna == nil {
		return nil, fmt.Errorf("fplan: push-up: node of %q is a root", o.B)
	}
	if e.Tree.SubtreeDependsOnNode(snb, sna) {
		return nil, fmt.Errorf("fplan: push-up of %q violates the path constraint", o.B)
	}
	sai, sbi := e.NodeIndex(sna), e.NodeIndex(snb)
	nt := e.Tree.Clone()
	if err := nt.PushUp(o.B); err != nil {
		return nil, err
	}
	var checkErr error
	// Each product of the grandparent gets the A-union without its B slot,
	// the factored-out B-union, and verbatim copies of the other members.
	out := rewriteProducts(e, nt, e.Tree.ParentOf(sna), func(r *encRewriter, members []int, u int) bool {
		b, s2d := r.b, r.s2d
		for _, m := range members {
			if m != sai {
				b.CopyUnions(e, m, s2d[m], u, u+1)
				continue
			}
			lo, hi := e.UnionSpan(sai, u)
			vals := e.Vals(sai)
			dA := s2d[sai]
			for i := lo; i < hi; i++ {
				b.Append(dA, vals[i])
				for _, ci := range e.Kids(sai) {
					if ci != sbi {
						b.CopyUnions(e, ci, s2d[ci], int(i), int(i)+1)
					}
				}
			}
			b.CloseUnion(dA)
			// The factored-out copy: B-union of the first A-entry.
			b.CopyUnions(e, sbi, s2d[sbi], int(lo), int(lo)+1)
			if Strict && checkErr == nil {
				for i := lo + 1; i < hi; i++ {
					if !e.UnionEqual(sbi, int(i), int(lo)) {
						checkErr = fmt.Errorf("fplan: push-up of %q factored out unequal copies", o.B)
						break
					}
				}
			}
		}
		return true
	})
	if checkErr != nil {
		return nil, checkErr
	}
	return out, nil
}

// ------------------------------------------------------------ swap, lift

// swapItem is a priority-queue element: A-entry aIdx, positioned at entry
// bPos of its B-child union (both absolute column indexes).
type swapItem struct {
	bVal       relation.Value
	aIdx, bPos int32
}

// swapHeap is a binary min-heap on (bVal, aIdx): popping yields the B
// values in increasing order and, per B value, the A-entries in union order.
type swapHeap []swapItem

func (h swapHeap) less(i, j int) bool {
	if h[i].bVal != h[j].bVal {
		return h[i].bVal < h[j].bVal
	}
	return h[i].aIdx < h[j].aIdx
}

func (h swapHeap) down(i int) {
	for {
		m := i
		if l := 2*i + 1; l < len(h) && h.less(l, m) {
			m = l
		}
		if r := 2*i + 2; r < len(h) && h.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// swapEnc is χ_{A,B}, the algorithm of Figure 4 per A-union: a heap holds
// one cursor per A-entry into its B-child span; draining it groups the
// entries by B value. Output layout (ftree.Swap): each new B-entry carries
// B's A-independent children (equal across the group — the first copy is
// kept) followed by the inner A-union; each inner A-entry carries A's other
// children followed by B's A-dependent children.
func swapEnc(o Swap, e *frep.Enc) (*frep.Enc, error) {
	split, err := e.Tree.PlanSwap(o.A, o.B)
	if err != nil {
		return nil, err
	}
	sna := e.Tree.NodeOf(o.A)
	sai, sbi := e.NodeIndex(sna), e.NodeIndex(e.Tree.NodeOf(o.B))
	nt := e.Tree.Clone()
	if err := nt.Swap(o.A, o.B); err != nil {
		return nil, err
	}
	aVals, bVals, bOffs := e.Vals(sai), e.Vals(sbi), e.Offs(sbi)
	bKids := e.Kids(sbi)
	var h swapHeap
	out := rewriteProducts(e, nt, e.Tree.ParentOf(sna), func(r *encRewriter, members []int, u int) bool {
		b, s2d := r.b, r.s2d
		for _, m := range members {
			if m != sai {
				b.CopyUnions(e, m, s2d[m], u, u+1)
				continue
			}
			dA, dB := s2d[sai], s2d[sbi]
			lo, hi := e.UnionSpan(sai, u)
			h = h[:0]
			for i := lo; i < hi; i++ {
				h = append(h, swapItem{bVal: bVals[bOffs[i]], aIdx: i, bPos: bOffs[i]})
			}
			for i := len(h)/2 - 1; i >= 0; i-- {
				h.down(i)
			}
			for len(h) > 0 {
				bmin := h[0].bVal
				b.Append(dB, bmin)
				for _, t := range split.Indep {
					b.CopyUnions(e, bKids[t], s2d[bKids[t]], int(h[0].bPos), int(h[0].bPos)+1)
				}
				for len(h) > 0 && h[0].bVal == bmin {
					it := h[0]
					b.Append(dA, aVals[it.aIdx])
					for _, ci := range e.Kids(sai) {
						if ci != sbi {
							b.CopyUnions(e, ci, s2d[ci], int(it.aIdx), int(it.aIdx)+1)
						}
					}
					for _, t := range split.Dep {
						b.CopyUnions(e, bKids[t], s2d[bKids[t]], int(it.bPos), int(it.bPos)+1)
					}
					// Advance this A-entry's cursor, or retire it.
					if it.bPos+1 < bOffs[it.aIdx+1] {
						h[0] = swapItem{bVal: bVals[it.bPos+1], aIdx: it.aIdx, bPos: it.bPos + 1}
					} else {
						h[0] = h[len(h)-1]
						h = h[:len(h)-1]
					}
					h.down(0)
				}
				b.CloseUnion(dA)
			}
			b.CloseUnion(dB)
		}
		return true
	})
	return out, nil
}

// liftEnc is λ: swaps until every target node has only target ancestors.
func liftEnc(o Lift, e *frep.Enc) (*frep.Enc, error) {
	for {
		a, b, ok, err := o.nextSwap(e.Tree)
		if err != nil {
			return nil, err
		}
		if !ok {
			return e, nil
		}
		if e, err = swapEnc(Swap{A: a, B: b}, e); err != nil {
			return nil, err
		}
	}
}

// --------------------------------------------------------- merge, absorb

// mergeEnc is μ_{A,B}: a sort-merge intersection of the two sibling unions
// per product; matched entries bulk-copy the children of both sides under
// the merged node, and an empty intersection kills the enclosing entry.
func mergeEnc(o Merge, e *frep.Enc) (*frep.Enc, error) {
	if !e.Tree.AreSiblings(o.A, o.B) {
		return nil, fmt.Errorf("fplan: merge: nodes of %q and %q are not siblings", o.A, o.B)
	}
	sna := e.Tree.NodeOf(o.A)
	sai, sbi := e.NodeIndex(sna), e.NodeIndex(e.Tree.NodeOf(o.B))
	nt := e.Tree.Clone()
	if err := nt.Merge(o.A, o.B); err != nil {
		return nil, err
	}
	va, vb := e.Vals(sai), e.Vals(sbi)
	out := rewriteProducts(e, nt, e.Tree.ParentOf(sna), func(r *encRewriter, members []int, u int) bool {
		b, s2d := r.b, r.s2d
		for _, m := range members {
			switch m {
			case sbi:
				// Folded into the merged union.
			case sai:
				i, ahi := e.UnionSpan(sai, u)
				k, bhi := e.UnionSpan(sbi, u)
				dM := s2d[sai]
				count := 0
				for i < ahi && k < bhi {
					switch {
					case va[i] < vb[k]:
						i++
					case va[i] > vb[k]:
						k++
					default:
						b.Append(dM, va[i])
						for _, ca := range e.Kids(sai) {
							b.CopyUnions(e, ca, s2d[ca], int(i), int(i)+1)
						}
						for _, cb := range e.Kids(sbi) {
							b.CopyUnions(e, cb, s2d[cb], int(k), int(k)+1)
						}
						count++
						i++
						k++
					}
				}
				if count == 0 {
					return false
				}
				b.CloseUnion(dM)
			default:
				b.CopyUnions(e, m, s2d[m], u, u+1)
			}
		}
		return true
	})
	return out, nil
}

// absorbEnc is α_{A,B} in one pass plus η: under each A-entry with value a
// the nodes on the A→B chain are re-emitted entry by entry, every B-union
// is restricted to its single entry with value a (a binary search, since
// entries are ordered), and that entry's child unions are spliced into the
// product of B's parent in B's slot (ftree.AbsorbSplice's layout). A
// B-union without a kills its enclosing entry, cascading up to the A-entry
// and beyond.
func absorbEnc(o Absorb, e *frep.Enc) (*frep.Enc, error) {
	sna, err := attrNode(e.Tree, o.A)
	if err != nil {
		return nil, err
	}
	snb, err := attrNode(e.Tree, o.B)
	if err != nil {
		return nil, err
	}
	if !e.Tree.IsAncestor(sna, snb) {
		return nil, fmt.Errorf("fplan: absorb: node of %q is not an ancestor of node of %q", o.A, o.B)
	}
	sai, sbi := e.NodeIndex(sna), e.NodeIndex(snb)
	// onChain marks the nodes strictly between A and B.
	onChain := make([]bool, e.NodeCount())
	for ni := e.Parent(sbi); ni != sai; ni = e.Parent(ni) {
		onChain[ni] = true
	}
	nt := e.Tree.Clone()
	if err := nt.AbsorbSplice(o.A, o.B); err != nil {
		return nil, err
	}
	r := newEncRewriter(e, nt, sai)
	b, s2d := r.b, r.s2d
	var marks [][]int32 // one reusable rollback buffer per chain depth
	// emitKids emits the child product of entry j of node ni (A or a chain
	// node) with the B-unions below restricted to a; it reports liveness.
	var emitKids func(ni, j, depth int, a relation.Value) bool
	emitKids = func(ni, j, depth int, a relation.Value) bool {
		for _, ci := range e.Kids(ni) {
			switch {
			case ci == sbi:
				lo, hi := e.UnionSpan(sbi, j)
				vals := e.Vals(sbi)[lo:hi]
				p := sort.Search(len(vals), func(i int) bool { return vals[i] >= a })
				if p == len(vals) || vals[p] != a {
					return false
				}
				for _, bk := range e.Kids(sbi) {
					b.CopyUnions(e, bk, s2d[bk], int(lo)+p, int(lo)+p+1)
				}
			case onChain[ci]:
				if len(marks) <= depth {
					marks = append(marks, nil)
				}
				lo, hi := e.UnionSpan(ci, j)
				dci := s2d[ci]
				live := false
				for i := lo; i < hi; i++ {
					marks[depth] = b.Mark(dci, marks[depth][:0])
					b.Append(dci, e.Vals(ci)[i])
					if emitKids(ci, int(i), depth+1, a) {
						live = true
					} else {
						b.Rollback(dci, marks[depth])
					}
				}
				if !live {
					return false
				}
				b.CloseUnion(dci)
			default:
				b.CopyUnions(e, ci, s2d[ci], j, j+1)
			}
		}
		return true
	}
	aVals := e.Vals(sai)
	r.products = func(j int) bool { return emitKids(sai, j, 0, aVals[j]) }
	return normaliseEnc(r.run())
}

// ------------------------------------------------------------- projection

// projectEnc is π_Ā: hidden marking is tree-only, removing an all-hidden
// leaf drops its column outright (O(#nodes), no data movement — parent
// entries are untouched), and only internal all-hidden nodes pay for swaps
// that sink them to the leaves.
func projectEnc(o Project, e *frep.Enc) (*frep.Enc, error) {
	for _, a := range o.Attrs {
		if e.Tree.NodeOf(a) == nil {
			return nil, fmt.Errorf("fplan: project: attribute %q not in f-tree", a)
		}
	}
	cur := e.ReTree(e.Tree.Clone())
	cur.Tree.MarkHidden(o.hiddenAttrs(cur.Tree))
	for {
		n := findAllHidden(cur.Tree)
		if n == nil {
			return cur, nil
		}
		if len(n.Children) == 0 {
			ni := cur.NodeIndex(n)
			t := cur.Tree
			if err := t.RemoveLeaf(n); err != nil {
				return nil, err
			}
			cur = cur.DropLeaf(t, ni)
			continue
		}
		next, err := swapEnc(Swap{A: n.Attrs[0], B: n.Children[0].Attrs[0]}, cur)
		if err != nil {
			return nil, err
		}
		cur = next
	}
}
