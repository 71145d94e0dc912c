package fplan

import (
	"fmt"

	"repro/internal/ftree"
	"repro/internal/relation"
)

// ---------------------------------------------------------------- lift λ

// Lift restructures the tree so that every node holding one of the given
// attributes has only such nodes as ancestors — the layout grouped
// aggregation wants: group-by attributes above, aggregated attributes
// below, so each union under the group zone belongs to exactly one group.
//
// Lift is a sequence of swaps χ: as long as some target node has a
// non-target parent, the child is promoted above it. Every swap moves one
// target node up a level and never moves another one down, so the total
// target depth strictly decreases and the loop terminates. Swaps preserve
// the path constraint, so Lift is applicable to any tree.
//
// The query compiler applies Lift at Prepare time with ApplyTree only: the
// build then produces the lifted layout directly and Exec never pays for
// data movement. ApplyEnc lifts an already-built representation.
type Lift struct {
	Attrs []relation.Attribute
}

func (o Lift) String() string { return fmt.Sprintf("λ%v", o.Attrs) }

// nextSwap finds the next (parent, child) swap pair: a target node whose
// parent is not a target node. It returns ok=false when the tree is lifted.
func (o Lift) nextSwap(t *ftree.T) (a, b relation.Attribute, ok bool, err error) {
	group := relation.NewAttrSet(o.Attrs...)
	for _, x := range o.Attrs {
		if t.NodeOf(x) == nil {
			return "", "", false, fmt.Errorf("fplan: lift: attribute %q not in f-tree", x)
		}
	}
	isTarget := func(n *ftree.Node) bool {
		for _, x := range n.Attrs {
			if group.Has(x) {
				return true
			}
		}
		return false
	}
	var found *ftree.Node
	var walk func(n, parent *ftree.Node)
	walk = func(n, parent *ftree.Node) {
		if found != nil {
			return
		}
		if parent != nil && isTarget(n) && !isTarget(parent) {
			found = n
			return
		}
		for _, c := range n.Children {
			walk(c, n)
		}
	}
	for _, r := range t.Roots {
		walk(r, nil)
		if found != nil {
			break
		}
	}
	if found == nil {
		return "", "", false, nil
	}
	return t.ParentOf(found).Attrs[0], found.Attrs[0], true, nil
}

// ApplyTree implements Op.
func (o Lift) ApplyTree(t *ftree.T) error {
	for {
		a, b, ok, err := o.nextSwap(t)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := t.Swap(a, b); err != nil {
			return err
		}
	}
}
