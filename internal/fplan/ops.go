// Package fplan implements the f-plan operators of Section 3 on factorised
// data: push-up ψ and normalisation η, swap χ (the priority-queue algorithm
// of Figure 4), Cartesian product ×, the selection operators merge μ, absorb
// α and selection-with-constant σ, and projection π — plus f-plans
// (sequences of operators) and their executor. There is no δ: every
// representation is a set, and projection keeps it one.
//
// Every operator maps an encoded representation (f-tree and columns
// together) to a fresh one, in time quasilinear in the sizes of its input
// and output (Proposition 2), preserving the order invariant, the path
// constraint, and normalisation. This file declares the operators and their
// schema-level transforms; enc_ops.go holds the data-level implementations.
package fplan

import (
	"fmt"

	"repro/internal/ftree"
	"repro/internal/relation"
)

// strict enables expensive internal consistency checks (copies factored out
// by push-up must be equal). The package's tests switch it on; nothing
// else does.
var strict = false

// Op is one f-plan operator. ApplyTree performs the schema-level transform
// only (used by the optimisers to cost candidate plans without touching
// data); ApplyEnc performs the full transform on a representation.
type Op interface {
	fmt.Stringer
	ApplyTree(t *ftree.T) error
}

// attrNode resolves the node labelled by a, or errors.
func attrNode(t *ftree.T, a relation.Attribute) (*ftree.Node, error) {
	n := t.NodeOf(a)
	if n == nil {
		return nil, fmt.Errorf("fplan: attribute %q not in f-tree", a)
	}
	return n, nil
}

// ---------------------------------------------------------------- push-up ψ

// PushUp is ψ_B (Section 3.1): the node of attribute B, independent of its
// parent, moves one level up; the corresponding unions are factored out of
// their enclosing union (all copies are equal by independence).
type PushUp struct {
	B relation.Attribute
}

func (o PushUp) String() string { return fmt.Sprintf("ψ[%s]", o.B) }

// ApplyTree implements Op.
func (o PushUp) ApplyTree(t *ftree.T) error { return t.PushUp(o.B) }

// ------------------------------------------------------------ normalise η

// Normalise is η: push-ups applied until no node can move (Definition 3).
type Normalise struct{}

func (Normalise) String() string { return "η" }

// ApplyTree implements Op.
func (Normalise) ApplyTree(t *ftree.T) error {
	t.NormaliseSteps()
	return nil
}

// ---------------------------------------------------------------- swap χ

// Swap is χ_{A,B} (Figure 4): node B, child of node A, is promoted above A;
// the representation is regrouped from "by A then B" to "by B then A" with
// a priority queue, preserving value order.
type Swap struct {
	A, B relation.Attribute
}

func (o Swap) String() string { return fmt.Sprintf("χ[%s,%s]", o.A, o.B) }

// ApplyTree implements Op.
func (o Swap) ApplyTree(t *ftree.T) error { return t.Swap(o.A, o.B) }

// ---------------------------------------------------------------- merge μ

// Merge is μ_{A,B} (Figure 3(c)): the sibling nodes of A and B are joined
// by a sort-merge over their union values; the merged node keeps A's
// children followed by B's children.
type Merge struct {
	A, B relation.Attribute
}

func (o Merge) String() string { return fmt.Sprintf("μ[%s,%s]", o.A, o.B) }

// ApplyTree implements Op.
func (o Merge) ApplyTree(t *ftree.T) error { return t.Merge(o.A, o.B) }

// ---------------------------------------------------------------- absorb α

// Absorb is α_{A,B} (Figure 3(d)): node B, a descendant of node A, is
// restricted to A's value on every branch, its labels join A's class, its
// children splice into its parent, and the tree is re-normalised.
type Absorb struct {
	A, B relation.Attribute
}

func (o Absorb) String() string { return fmt.Sprintf("α[%s,%s]", o.A, o.B) }

// ApplyTree implements Op.
func (o Absorb) ApplyTree(t *ftree.T) error {
	if err := t.AbsorbSplice(o.A, o.B); err != nil {
		return err
	}
	t.NormaliseSteps()
	return nil
}
