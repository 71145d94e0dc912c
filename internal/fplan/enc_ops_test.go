package fplan

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/frep"
	"repro/internal/ftree"
	"repro/internal/relation"
)

// rel builds a relation from literal rows.
func rel(schema relation.Schema, rows ...[]relation.Value) *relation.Relation {
	r := relation.New("R", schema)
	for _, row := range rows {
		r.Append(row...)
	}
	return r
}

// entriesOf returns the total number of entries of a's node.
func entriesOf(e *frep.Enc, a relation.Attribute) int {
	return e.NumEntries(e.NodeIndex(e.Tree.NodeOf(a)))
}

// TestSwapAbsorbEdgeShapes pins the restructuring operators on the shapes
// their span arithmetic is most likely to get wrong. applyChecked verifies
// validity, the tree contract and the flat semantics; check adds what is
// specific to the shape.
func TestSwapAbsorbEdgeShapes(t *testing.T) {
	type row = []relation.Value
	set := relation.NewAttrSet
	node := ftree.NewNode
	cases := []struct {
		name  string
		tree  *ftree.T
		rel   *relation.Relation
		op    Op
		check func(t *testing.T, out *frep.Enc)
	}{
		{
			name: "swap/single-entry A-union",
			tree: chainTree([]relation.Attribute{"A", "B"}, []relation.AttrSet{set("A", "B")}),
			rel:  rel(relation.Schema{"A", "B"}, row{1, 1}, row{1, 2}, row{1, 3}),
			op:   Swap{A: "A", B: "B"},
			check: func(t *testing.T, out *frep.Enc) {
				if b, a := entriesOf(out, "B"), entriesOf(out, "A"); b != 3 || a != 3 {
					t.Fatalf("want 3 B-entries over 3 one-entry A-unions, got %d and %d", b, a)
				}
			},
		},
		{
			name: "swap/B value shared by every A-entry",
			tree: chainTree([]relation.Attribute{"A", "B"}, []relation.AttrSet{set("A", "B")}),
			rel:  rel(relation.Schema{"A", "B"}, row{1, 7}, row{2, 7}, row{3, 7}),
			op:   Swap{A: "A", B: "B"},
			check: func(t *testing.T, out *frep.Enc) {
				if b, a := entriesOf(out, "B"), entriesOf(out, "A"); b != 1 || a != 3 {
					t.Fatalf("want one B-entry over one 3-entry A-union, got %d and %d", b, a)
				}
			},
		},
		{
			// Figure 3(b): of B's children, C depends on A and moves under it,
			// D does not and stays with B — one copy per B value.
			name: "swap/Indep and Dep both non-empty",
			tree: ftree.New([]*ftree.Node{node("A").Add(node("B").Add(node("C"), node("D")))},
				[]relation.AttrSet{set("A", "B", "C"), set("B", "D")}),
			rel: rel(relation.Schema{"A", "B", "C", "D"},
				row{1, 1, 5, 8}, row{1, 1, 5, 9}, row{1, 1, 6, 8}, row{1, 1, 6, 9},
				row{2, 1, 7, 8}, row{2, 1, 7, 9}, row{2, 2, 5, 4}),
			op: Swap{A: "A", B: "B"},
			check: func(t *testing.T, out *frep.Enc) {
				b := out.Tree.NodeOf("B")
				if out.Tree.ParentOf(out.Tree.NodeOf("D")) != b || out.Tree.ParentOf(out.Tree.NodeOf("C")) != out.Tree.NodeOf("A") {
					t.Fatalf("want D under B and C under A:\n%s", out.Tree)
				}
				if d := entriesOf(out, "D"); d != 3 {
					t.Fatalf("want the D-unions {8,9} and {4} once per B value, got %d entries", d)
				}
			},
		},
		{
			// The swapped union sits under entries of G whose other child X
			// must be bulk-copied, once per G-entry.
			name: "swap/under a grandparent with a sibling subtree",
			tree: ftree.New([]*ftree.Node{node("G").Add(node("A").Add(node("B")), node("X").Add(node("Y")))},
				[]relation.AttrSet{set("G", "A", "B"), set("G", "X", "Y")}),
			rel: rel(relation.Schema{"G", "A", "B", "X", "Y"},
				row{1, 1, 2, 5, 5}, row{1, 2, 2, 5, 5}, row{1, 2, 3, 5, 5},
				row{1, 1, 2, 6, 1}, row{1, 2, 2, 6, 1}, row{1, 2, 3, 6, 1},
				row{2, 4, 4, 7, 7}),
			op: Swap{A: "A", B: "B"},
			check: func(t *testing.T, out *frep.Enc) {
				if x, y := entriesOf(out, "X"), entriesOf(out, "Y"); x != 3 || y != 3 {
					t.Fatalf("sibling subtree not copied verbatim: %d X-entries, %d Y-entries", x, y)
				}
			},
		},
		{
			name: "absorb/partial: a branch and a whole A-entry empty",
			tree: chainTree([]relation.Attribute{"A", "B", "C"}, []relation.AttrSet{set("A", "B", "C")}),
			rel:  rel(relation.Schema{"A", "B", "C"}, row{1, 1, 1}, row{1, 2, 2}, row{2, 1, 1}, row{3, 3, 3}),
			op:   Absorb{A: "A", B: "C"},
			check: func(t *testing.T, out *frep.Enc) {
				if a, b := entriesOf(out, "A"), entriesOf(out, "B"); a != 2 || b != 2 {
					t.Fatalf("want A∈{1,3} with one B each, got %d A-entries, %d B-entries", a, b)
				}
			},
		},
		{
			name: "absorb/cascade reaches the root",
			tree: chainTree([]relation.Attribute{"A", "B", "C"}, []relation.AttrSet{set("A", "B", "C")}),
			rel:  rel(relation.Schema{"A", "B", "C"}, row{1, 1, 2}, row{1, 2, 3}, row{2, 1, 1}),
			op:   Absorb{A: "A", B: "C"},
			check: func(t *testing.T, out *frep.Enc) {
				if !out.IsEmpty() {
					t.Fatalf("want ∅, got %s", out)
				}
				if out.Tree.NodeOf("A") != out.Tree.NodeOf("C") {
					t.Fatalf("empty result, but the tree was not restructured:\n%s", out.Tree)
				}
			},
		},
		{
			// Two intermediate nodes between A and D, a side branch (E) that
			// bulk-copies, and a child of D (F) that is spliced into C.
			name: "absorb/chain of length 4 with splice",
			tree: ftree.New([]*ftree.Node{node("A").Add(node("B").Add(node("C").Add(node("D").Add(node("F"))), node("E")))},
				[]relation.AttrSet{set("A", "B", "C", "D", "F"), set("B", "E")}),
			rel: rel(relation.Schema{"A", "B", "C", "D", "F", "E"},
				row{1, 1, 1, 1, 9, 4}, row{1, 1, 1, 2, 9, 4}, row{1, 1, 2, 2, 8, 4},
				row{1, 2, 1, 1, 7, 5}, row{1, 2, 1, 1, 7, 6},
				row{2, 1, 1, 1, 9, 4}, row{2, 3, 3, 1, 4, 5}, row{2, 3, 3, 2, 6, 5}, row{2, 3, 3, 2, 5, 5}),
			op: Absorb{A: "A", B: "D"},
			check: func(t *testing.T, out *frep.Enc) {
				if out.Tree.ParentOf(out.Tree.NodeOf("F")) != out.Tree.NodeOf("C") {
					t.Fatalf("F not spliced under C:\n%s", out.Tree)
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := applyChecked(t, c.op, mustEnc(t, c.tree, c.rel))
			if out == nil {
				t.Fatalf("%s rejected", c.op)
			}
			c.check(t, out)
		})
	}
}

// TestStrictPushUpCatchesUnequalCopies: with Strict on (the whole test
// package), a push-up over data that does not have the independence its
// tree claims fails instead of silently keeping the first copy.
func TestStrictPushUpCatchesUnequalCopies(t *testing.T) {
	attrs := []relation.Attribute{"A", "B"}
	e := mustEnc(t, chainTree(attrs, []relation.AttrSet{relation.NewAttrSet("A", "B")}),
		rel(relation.Schema{"A", "B"}, []relation.Value{1, 1}, []relation.Value{2, 2}))
	// The same columns under a tree that declares B independent of A.
	lying := e.ReTree(chainTree(attrs, []relation.AttrSet{relation.NewAttrSet("A"), relation.NewAttrSet("B")}))
	_, err := ApplyEnc(PushUp{B: "B"}, lying)
	if err == nil || !strings.Contains(err.Error(), "unequal copies") {
		t.Fatalf("want the Strict equality check to fire, got %v", err)
	}
}

// TestSelectFnDirect pins the SelectFn surface: rendering, the
// unknown-attribute error, and a decoded-order-style predicate filtering
// without marking anything constant.
func TestSelectFnDirect(t *testing.T) {
	e := productFixture(t, rand.New(rand.NewSource(17)))
	op := SelectFn{A: "B", Keep: func(v relation.Value) bool { return v != 1 }, Label: "!= 1 (decoded)"}
	if got := op.String(); got != "σ[B != 1 (decoded)]" {
		t.Errorf("String() = %q", got)
	}
	if applyChecked(t, SelectFn{A: "Z", Keep: op.Keep, Label: "x"}, e) != nil {
		t.Error("unknown attribute accepted")
	}
	out := applyChecked(t, op, e)
	if out.Tree.Canonical() != e.Tree.Canonical() {
		t.Errorf("SelectFn changed the tree:\n%s\nwas:\n%s", out.Tree, e.Tree)
	}
}
