package ftree

import (
	"fmt"
	"sort"

	"repro/internal/relation"
)

// This file implements the static (schema-level) side of the f-plan
// operators of Section 3, Figure 3: push-up ψ, normalisation η, swap χ,
// merge μ and absorb α, plus projection marking. The data-level mirrors live
// in package fplan; they replay exactly the structural changes made here, so
// the contracts below (which child goes where, in which order) are part of
// the operator semantics.

// CanPushUp reports whether node b (identified by one of its attributes) has
// a parent it is independent of, i.e. ψ_b is applicable.
func (t *T) CanPushUp(b relation.Attribute) bool {
	n := t.NodeOf(b)
	if n == nil {
		return false
	}
	p := t.ParentOf(n)
	if p == nil {
		return false
	}
	return !t.SubtreeDependsOnNode(n, p)
}

// PushUp applies ψ_b: the node labelled by b moves one level up, becoming a
// sibling of its former parent (appended after it), or a new root if the
// parent was a root. The data mirror appends the moved union at the end of
// the enclosing product, matching this order.
func (t *T) PushUp(b relation.Attribute) error {
	n := t.NodeOf(b)
	if n == nil {
		return fmt.Errorf("ftree: push-up: attribute %q not in tree", b)
	}
	p := t.ParentOf(n)
	if p == nil {
		return fmt.Errorf("ftree: push-up: node of %q is a root", b)
	}
	if t.SubtreeDependsOnNode(n, p) {
		return fmt.Errorf("ftree: push-up of %q would violate the path constraint", b)
	}
	removeChild(p, n)
	gp := t.ParentOf(p)
	if gp == nil {
		t.Roots = append(t.Roots, n)
	} else {
		gp.Children = append(gp.Children, n)
	}
	return nil
}

func removeChild(p *Node, c *Node) {
	for i, x := range p.Children {
		if x == c {
			p.Children = append(p.Children[:i], p.Children[i+1:]...)
			return
		}
	}
	panic("ftree: removeChild: not a child")
}

// NormaliseSteps computes and applies a normalisation η: a sequence of
// push-ups after which no node can be pushed up (Definition 3). It returns
// the attributes identifying the pushed nodes, in application order, so the
// data layer can replay the same sequence. The traversal is deterministic:
// repeatedly scan nodes in canonical order and push the first pushable one
// as far up as it goes.
func (t *T) NormaliseSteps() []relation.Attribute {
	var steps []relation.Attribute
	for {
		b := t.findPushable()
		if b == "" {
			return steps
		}
		// Push b as far up as possible.
		for t.CanPushUp(b) {
			if err := t.PushUp(b); err != nil {
				panic(err) // CanPushUp just said yes
			}
			steps = append(steps, b)
		}
	}
}

// findPushable returns an attribute of some pushable node, or "".
func (t *T) findPushable() relation.Attribute {
	var found relation.Attribute
	var walk func(n *Node, parent *Node)
	walk = func(n *Node, parent *Node) {
		if found != "" {
			return
		}
		if parent != nil && !t.SubtreeDependsOnNode(n, parent) {
			found = n.Attrs[0]
			return
		}
		for _, c := range n.Children {
			walk(c, n)
		}
	}
	for _, r := range t.Roots {
		walk(r, nil)
		if found != "" {
			break
		}
	}
	return found
}

// IsNormalised reports whether no push-up is applicable.
func (t *T) IsNormalised() bool { return t.findPushable() == "" }

// SwapSplit is the result of planning a swap χ_{A,B}: which of B's children
// stay under B (independent of A) and which move under A (dependent on A).
// Indices refer to B's child list before the swap.
type SwapSplit struct {
	Indep []int // TB of Figure 3(b): stay as children of B
	Dep   []int // TAB: move under A
}

// PlanSwap computes the child split for χ_{a,b} without mutating the tree.
// The node of b must be a child of the node of a.
func (t *T) PlanSwap(a, b relation.Attribute) (SwapSplit, error) {
	na, nb := t.NodeOf(a), t.NodeOf(b)
	if na == nil || nb == nil {
		return SwapSplit{}, fmt.Errorf("ftree: swap: attribute not in tree")
	}
	if t.ParentOf(nb) != na {
		return SwapSplit{}, fmt.Errorf("ftree: swap: node of %q is not a child of node of %q", b, a)
	}
	var split SwapSplit
	for i, c := range nb.Children {
		if t.SubtreeDependsOnNode(c, na) {
			split.Dep = append(split.Dep, i)
		} else {
			split.Indep = append(split.Indep, i)
		}
	}
	return split, nil
}

// Swap applies χ_{a,b} (Figure 3(b)): B takes A's place; B keeps its
// A-independent children (in order) followed by A; A keeps its other
// children (in order) followed by B's A-dependent children (in order).
// Swapping preserves the path constraint and normalisation.
func (t *T) Swap(a, b relation.Attribute) error {
	split, err := t.PlanSwap(a, b)
	if err != nil {
		return err
	}
	na, nb := t.NodeOf(a), t.NodeOf(b)
	gp := t.ParentOf(na)

	var tb, tab []*Node
	for _, i := range split.Indep {
		tb = append(tb, nb.Children[i])
	}
	for _, i := range split.Dep {
		tab = append(tab, nb.Children[i])
	}
	removeChild(na, nb)
	na.Children = append(na.Children, tab...)
	nb.Children = append(tb, na)

	if gp == nil {
		for i, r := range t.Roots {
			if r == na {
				t.Roots[i] = nb
				break
			}
		}
	} else {
		for i, c := range gp.Children {
			if c == na {
				gp.Children[i] = nb
				break
			}
		}
	}
	return nil
}

// AreSiblings reports whether the nodes of a and b are distinct and either
// both roots or children of the same node, i.e. μ is applicable.
func (t *T) AreSiblings(a, b relation.Attribute) bool {
	na, nb := t.NodeOf(a), t.NodeOf(b)
	if na == nil || nb == nil || na == nb {
		return false
	}
	pa, pb := t.ParentOf(na), t.ParentOf(nb)
	return pa == pb
}

// Merge applies μ_{a,b} (Figure 3(c)): the sibling nodes of a and b are
// merged into one node labelled by both classes, whose children are A's
// children followed by B's children. The merged node takes A's position; B's
// slot disappears.
func (t *T) Merge(a, b relation.Attribute) error {
	if !t.AreSiblings(a, b) {
		return fmt.Errorf("ftree: merge: nodes of %q and %q are not siblings", a, b)
	}
	na, nb := t.NodeOf(a), t.NodeOf(b)
	na.Attrs = append(na.Attrs, nb.Attrs...)
	sort.Slice(na.Attrs, func(i, j int) bool { return na.Attrs[i] < na.Attrs[j] })
	na.Children = append(na.Children, nb.Children...)
	if p := t.ParentOf(nb); p != nil {
		removeChild(p, nb)
	} else {
		for i, r := range t.Roots {
			if r == nb {
				t.Roots = append(t.Roots[:i], t.Roots[i+1:]...)
				break
			}
		}
	}
	return nil
}

// AbsorbSplice applies the structural part of α_{a,b} (Figure 3(d)): the
// node of b (a strict descendant of the node of a) is deleted, its labels
// join A's class, and its children are attached to B's former parent in B's
// place. The caller is responsible for the accompanying data restriction
// and for re-normalising afterwards (α = restrict + splice + η).
func (t *T) AbsorbSplice(a, b relation.Attribute) error {
	na, nb := t.NodeOf(a), t.NodeOf(b)
	if na == nil || nb == nil {
		return fmt.Errorf("ftree: absorb: attribute not in tree")
	}
	if !t.IsAncestor(na, nb) {
		return fmt.Errorf("ftree: absorb: node of %q is not an ancestor of node of %q", a, b)
	}
	p := t.ParentOf(nb)
	// Splice children into B's slot position.
	for i, c := range p.Children {
		if c == nb {
			rest := append([]*Node(nil), p.Children[i+1:]...)
			p.Children = append(p.Children[:i], nb.Children...)
			p.Children = append(p.Children, rest...)
			break
		}
	}
	na.Attrs = append(na.Attrs, nb.Attrs...)
	sort.Slice(na.Attrs, func(i, j int) bool { return na.Attrs[i] < na.Attrs[j] })
	return nil
}

// MarkConst records that attribute a is bound to a single constant value;
// dependence checks and s(T) ignore it from now on.
func (t *T) MarkConst(a relation.Attribute) {
	n := t.NodeOf(a)
	if n == nil {
		return
	}
	for _, x := range n.Attrs {
		t.Consts.Add(x)
	}
}

// MarkHidden marks the given attributes as projected away and merges
// dependency sets that share a hidden attribute: if a join attribute
// disappears from the output, the remaining attributes of the joined
// relations become (transitively) dependent (Sections 2 and 3.4).
func (t *T) MarkHidden(attrs []relation.Attribute) {
	for _, a := range attrs {
		t.Hidden.Add(a)
	}
	// Union-find over dependency sets connected through hidden attributes.
	parent := make([]int, len(t.Deps))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	for a := range t.Hidden {
		first := -1
		for i, d := range t.Deps {
			if d.Has(a) {
				if first < 0 {
					first = i
				} else {
					parent[find(i)] = find(first)
				}
			}
		}
	}
	merged := map[int]relation.AttrSet{}
	for i, d := range t.Deps {
		r := find(i)
		if merged[r] == nil {
			merged[r] = relation.AttrSet{}
		}
		for a := range d {
			merged[r].Add(a)
		}
	}
	keys := make([]int, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	t.Deps = t.Deps[:0]
	for _, k := range keys {
		t.Deps = append(t.Deps, merged[k])
	}
}

// AllHidden reports whether every attribute of n is hidden.
func (t *T) AllHidden(n *Node) bool {
	for _, a := range n.Attrs {
		if !t.Hidden.Has(a) {
			return false
		}
	}
	return true
}

// AllConst reports whether every attribute of n is bound to a constant:
// such a node holds at most one entry per union, so it never perturbs the
// order of the surrounding digits.
func (t *T) AllConst(n *Node) bool {
	for _, a := range n.Attrs {
		if !t.Consts.Has(a) {
			return false
		}
	}
	return true
}

// RemoveLeaf deletes a leaf node (no children) from the tree. Used by the
// projection operator after hidden nodes have been swapped down to leaves.
func (t *T) RemoveLeaf(n *Node) error {
	if len(n.Children) != 0 {
		return fmt.Errorf("ftree: RemoveLeaf: node %v has children", n.Attrs)
	}
	if p := t.ParentOf(n); p != nil {
		removeChild(p, n)
		return nil
	}
	for i, r := range t.Roots {
		if r == n {
			t.Roots = append(t.Roots[:i], t.Roots[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("ftree: RemoveLeaf: node not in tree")
}
