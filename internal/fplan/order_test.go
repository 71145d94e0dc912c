package fplan

import (
	"testing"

	"repro/internal/frep"
	"repro/internal/ftree"
	"repro/internal/relation"
)

func keysOf(attrs ...relation.Attribute) []frep.OrderKey {
	out := make([]frep.OrderKey, len(attrs))
	for i, a := range attrs {
		out[i] = frep.OrderKey{Attr: a}
	}
	return out
}

func TestOrderCompatible(t *testing.T) {
	// B with children A, C (the retailer shape).
	tr := ftree.New([]*ftree.Node{
		ftree.NewNode("B").Add(ftree.NewNode("A"), ftree.NewNode("C")),
	}, []relation.AttrSet{relation.NewAttrSet("A", "B"), relation.NewAttrSet("B", "C")})

	for _, tc := range []struct {
		keys []frep.OrderKey
		want bool
	}{
		{keysOf("B"), true},
		{keysOf("B", "A"), true},                         // A is the first child
		{keysOf("B", "A", "C"), true},                    // full pre-order
		{keysOf("B", "B"), true},                         // repeats are tie-free
		{keysOf("A"), false},                             // not the root
		{keysOf("B", "C"), false},                        // C is not the next pre-order node
		{keysOf("X"), false},                             // unknown attribute
		{[]frep.OrderKey{{Attr: "B", Desc: true}}, true}, // direction is order-free
	} {
		if got := OrderCompatible(tr, tc.keys); got != tc.want {
			t.Errorf("OrderCompatible(%v) = %v, want %v", tc.keys, got, tc.want)
		}
	}
}

func TestReorderForOrderSiblings(t *testing.T) {
	tr := ftree.New([]*ftree.Node{
		ftree.NewNode("B").Add(ftree.NewNode("A"), ftree.NewNode("C")),
	}, []relation.AttrSet{relation.NewAttrSet("A", "B"), relation.NewAttrSet("B", "C")})

	if OrderCompatible(tr, keysOf("B", "C")) {
		t.Fatal("precondition: B,C should need a reorder")
	}
	if !ReorderForOrder(tr, keysOf("B", "C")) {
		t.Fatal("ReorderForOrder failed on a sibling permutation")
	}
	if !OrderCompatible(tr, keysOf("B", "C")) {
		t.Fatal("tree is not order-compatible after reorder")
	}
	if tr.Roots[0].Children[0].Attrs[0] != "C" {
		t.Fatalf("C not moved to first child: %v", tr)
	}
	// A non-root first key cannot be fixed by reordering.
	if ReorderForOrder(tr, keysOf("A", "B")) {
		t.Fatal("ReorderForOrder claimed success for a non-root key")
	}
}

func TestReorderForOrderRootHop(t *testing.T) {
	// Forest of two independent leaves: any root order is reachable.
	mk := func() *ftree.T {
		return ftree.New([]*ftree.Node{ftree.NewNode("A"), ftree.NewNode("B")},
			[]relation.AttrSet{relation.NewAttrSet("A"), relation.NewAttrSet("B")})
	}
	tr := mk()
	if !ReorderForOrder(tr, keysOf("B", "A")) {
		t.Fatal("root hop over independent leaves failed")
	}
	if tr.Roots[0].Attrs[0] != "B" || tr.Roots[1].Attrs[0] != "A" {
		t.Fatalf("roots not reordered: %v", tr)
	}
	// A root with an unfinished subtree cannot hop.
	tr2 := ftree.New([]*ftree.Node{
		ftree.NewNode("A").Add(ftree.NewNode("C")), ftree.NewNode("B"),
	}, []relation.AttrSet{relation.NewAttrSet("A", "C"), relation.NewAttrSet("B")})
	if ReorderForOrder(tr2, keysOf("A", "B")) {
		t.Fatal("hop over an unfinished subtree must fail (C would precede B)")
	}
	// ...but a bare chain can.
	if !ReorderForOrder(tr2, keysOf("A", "C", "B")) {
		t.Fatal("bare-chain hop failed")
	}
}

func TestReorderForOrderSiblingContinuation(t *testing.T) {
	// Root B with leaf children [C, A]: after pinning A first, pre-order
	// continues with B's next child — (B, A, C) and (A, C) under a constant
	// root are both reachable by sibling reordering alone.
	mk := func(constRoot bool) *ftree.T {
		tr := ftree.New([]*ftree.Node{
			ftree.NewNode("B").Add(ftree.NewNode("C"), ftree.NewNode("A")),
		}, []relation.AttrSet{relation.NewAttrSet("A", "B"), relation.NewAttrSet("B", "C")})
		if constRoot {
			tr.Consts.Add("B")
		}
		return tr
	}
	tr := mk(false)
	if !ReorderForOrder(tr, keysOf("B", "A", "C")) || !OrderCompatible(tr, keysOf("B", "A", "C")) {
		t.Fatal("sibling continuation after a leaf key failed")
	}
	// The reviewer's shape: constant root, keys name only the siblings.
	tr = mk(true)
	if !ReorderForOrder(tr, keysOf("A", "C")) || !OrderCompatible(tr, keysOf("A", "C")) {
		t.Fatal("sibling continuation under a constant root failed")
	}
	// Deeper climb: B -> A -> D (leaf), then C as B's next child.
	tr2 := ftree.New([]*ftree.Node{
		ftree.NewNode("B").Add(ftree.NewNode("C"), ftree.NewNode("A").Add(ftree.NewNode("D"))),
	}, []relation.AttrSet{relation.NewAttrSet("A", "B", "D"), relation.NewAttrSet("B", "C")})
	if !ReorderForOrder(tr2, keysOf("B", "A", "D", "C")) || !OrderCompatible(tr2, keysOf("B", "A", "D", "C")) {
		t.Fatal("climb past an exhausted subtree failed")
	}
	// ...but climbing past an unfinished subtree must fail: D unvisited.
	tr3 := ftree.New([]*ftree.Node{
		ftree.NewNode("B").Add(ftree.NewNode("C"), ftree.NewNode("A").Add(ftree.NewNode("D"))),
	}, []relation.AttrSet{relation.NewAttrSet("A", "B", "D"), relation.NewAttrSet("B", "C")})
	if ReorderForOrder(tr3, keysOf("B", "A", "C")) {
		t.Fatal("climb over A's unvisited child D must fail (D precedes C in pre-order)")
	}
}

func TestReorderForOrderSkipsConstNodes(t *testing.T) {
	tr := ftree.New([]*ftree.Node{
		ftree.NewNode("A").Add(ftree.NewNode("B")),
	}, []relation.AttrSet{relation.NewAttrSet("A", "B")})
	tr.Consts.Add("A")
	if !ReorderForOrder(tr, keysOf("B")) {
		t.Fatal("constant root should be transparent to ordering")
	}
	if !OrderCompatible(tr, keysOf("B")) {
		t.Fatal("tree not order-compatible through the constant node")
	}
}

// Distinct: identity on engine-built representations (real dedup on
// duplicate-carrying ones is frep's TestDedupEnc) and a schema no-op.
func TestDistinctOp(t *testing.T) {
	r := relation.New("R", relation.Schema{"A", "B"})
	r.Append(1, 2)
	r.Append(1, 3)
	r.Append(2, 2)
	tr := ftree.New([]*ftree.Node{ftree.NewNode("A").Add(ftree.NewNode("B"))},
		[]relation.AttrSet{relation.NewAttrSet("A", "B")})
	e := mustEnc(t, tr, r)
	out := applyChecked(t, Distinct{}, e)
	if !out.Equal(e) {
		t.Fatal("Distinct changed an engine-built representation")
	}

	// Empty representations stay empty.
	empty := frep.NewEmptyEnc(tr.Clone())
	out, err := ApplyEnc(Distinct{}, empty)
	if err != nil {
		t.Fatal(err)
	}
	if !out.IsEmpty() {
		t.Fatal("Distinct broke the empty representation")
	}

	if err := (Distinct{}).ApplyTree(tr); err != nil {
		t.Fatalf("ApplyTree: %v", err)
	}
	if (Distinct{}).String() != "δ" {
		t.Fatal("unexpected operator rendering")
	}
}
