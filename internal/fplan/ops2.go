package fplan

import (
	"fmt"

	"repro/internal/ftree"
	"repro/internal/relation"
)

// Cmp is a comparison operator for selections with constant.
type Cmp int

// Comparison operators.
const (
	Eq Cmp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

func (c Cmp) String() string {
	switch c {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	}
	return "?"
}

// eval applies the comparison.
func (c Cmp) eval(a, b relation.Value) bool {
	switch c {
	case Eq:
		return a == b
	case Ne:
		return a != b
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	case Ge:
		return a >= b
	}
	return false
}

// SelectConst is σ_{AθC} (Section 3.3): one pass over the representation
// removing entries whose value fails the comparison, with empty unions
// annihilating their enclosing products. For equality the node becomes
// constant: it stops carrying correlation, so the tree re-normalises (the
// node floats up) and s(T) ignores it.
type SelectConst struct {
	A  relation.Attribute
	Op Cmp
	C  relation.Value
}

func (o SelectConst) String() string { return fmt.Sprintf("σ[%s%s%d]", o.A, o.Op, int64(o.C)) }

// ApplyTree implements Op.
func (o SelectConst) ApplyTree(t *ftree.T) error {
	if t.NodeOf(o.A) == nil {
		return fmt.Errorf("fplan: select: attribute %q not in f-tree", o.A)
	}
	if o.Op == Eq {
		t.MarkConst(o.A)
		t.NormaliseSteps()
	}
	return nil
}

// SelectFn is σ_{A∈P}: a selection by an arbitrary value predicate — the
// escape hatch for comparisons whose order is not native value order, most
// prominently range selections on dictionary-encoded strings, which must
// compare in decoded lexicographic order while codes carry insertion order.
// Unlike SelectConst it never marks the node constant (the surviving values
// are not known to be a single one), so the tree shape is preserved.
type SelectFn struct {
	A     relation.Attribute
	Keep  func(relation.Value) bool
	Label string // human-readable predicate, for plan rendering
}

func (o SelectFn) String() string { return fmt.Sprintf("σ[%s %s]", o.A, o.Label) }

// ApplyTree implements Op.
func (o SelectFn) ApplyTree(t *ftree.T) error {
	if t.NodeOf(o.A) == nil {
		return fmt.Errorf("fplan: select: attribute %q not in f-tree", o.A)
	}
	return nil
}

// ---------------------------------------------------------------- project π

// Project is π_Ā (Section 3.4): attributes outside the projection list are
// marked, dependency sets sharing a marked attribute merge (projected join
// attributes induce transitive dependence), fully-marked nodes are swapped
// down to leaves and removed.
type Project struct {
	Attrs []relation.Attribute // attributes to keep
}

func (o Project) String() string {
	return fmt.Sprintf("π%v", o.Attrs)
}

func (o Project) hiddenAttrs(t *ftree.T) []relation.Attribute {
	keep := relation.NewAttrSet(o.Attrs...)
	var hidden []relation.Attribute
	for _, a := range t.Attrs().Sorted() {
		if !keep.Has(a) {
			hidden = append(hidden, a)
		}
	}
	return hidden
}

// findAllHidden returns the deepest node whose attributes are all hidden
// (first in DFS order among ties), or nil. Picking the deepest one is what
// makes the swap-down loop terminate: such a node has no all-hidden
// descendants, so swapping it below a child only ever sinks it further
// while the nodes it passes are kept ones that never need moving. (Two
// adjacent all-hidden nodes would otherwise swap back and forth forever.)
func findAllHidden(t *ftree.T) *ftree.Node {
	var found *ftree.Node
	foundDepth := -1
	var walk func(n *ftree.Node, depth int)
	walk = func(n *ftree.Node, depth int) {
		if t.AllHidden(n) && depth > foundDepth {
			found, foundDepth = n, depth
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range t.Roots {
		walk(r, 0)
	}
	return found
}

// ApplyTree implements Op.
func (o Project) ApplyTree(t *ftree.T) error {
	for _, a := range o.Attrs {
		if t.NodeOf(a) == nil {
			return fmt.Errorf("fplan: project: attribute %q not in f-tree", a)
		}
	}
	t.MarkHidden(o.hiddenAttrs(t))
	for {
		n := findAllHidden(t)
		if n == nil {
			return nil
		}
		if len(n.Children) == 0 {
			if err := t.RemoveLeaf(n); err != nil {
				return err
			}
			continue
		}
		// Swap the hidden node below its first child; its subtree strictly
		// shrinks, so this terminates.
		if err := t.Swap(n.Attrs[0], n.Children[0].Attrs[0]); err != nil {
			return err
		}
	}
}

// ---------------------------------------------------------------- product ×

// productTree validates attribute disjointness and combines two trees into
// the product forest (Section 3.2). ta and tb must be private to the
// caller (their roots are absorbed into the result).
func productTree(ta, tb *ftree.T) (*ftree.T, error) {
	aAttrs := ta.Attrs()
	for x := range tb.Attrs() {
		if aAttrs.Has(x) {
			return nil, fmt.Errorf("fplan: product: attribute %q on both sides", x)
		}
	}
	return &ftree.T{
		Roots:  append(ta.Roots, tb.Roots...),
		Rels:   append(ta.Rels, tb.Rels...),
		Deps:   append(ta.Deps, tb.Deps...),
		Hidden: ta.Hidden.Union(tb.Hidden),
		Consts: ta.Consts.Union(tb.Consts),
	}, nil
}
