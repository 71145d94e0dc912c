package frep

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ftree"
	"repro/internal/relation"
)

func keysOf(attrs ...relation.Attribute) []OrderKey {
	out := make([]OrderKey, len(attrs))
	for i, a := range attrs {
		out[i] = OrderKey{Attr: a}
	}
	return out
}

// resolve runs ResolveOrder and checks what every call must keep: tr is
// left as it was, a success returns a streaming arrangement of tr, and a
// failure returns tr itself.
func resolve(t *testing.T, tr *ftree.T, keys []OrderKey) (*ftree.T, bool) {
	t.Helper()
	before, shape := tr.String(), tr.Canonical()
	got, ord, ok := ResolveOrder(tr, keys, nil)
	if after := tr.String(); after != before {
		t.Fatalf("ResolveOrder(%v) mutated its input:\n%s\nwas\n%s", keys, after, before)
	}
	if !ok {
		if got != tr || ord != nil {
			t.Fatalf("failed ResolveOrder(%v) returned another tree or a plan", keys)
		}
		return got, false
	}
	if got.Canonical() != shape {
		t.Fatalf("ResolveOrder(%v) changed the shape:\n%s\nwas\n%s", keys, got, tr)
	}
	if _, streams := matchOrder(got, keys, nil); !streams || ord == nil {
		t.Fatalf("ResolveOrder(%v) returned a tree that does not stream:\n%s", keys, got)
	}
	return got, true
}

// retailerShape is B with children A, C.
func retailerShape() *ftree.T {
	return ftree.New([]*ftree.Node{
		ftree.NewNode("B").Add(ftree.NewNode("A"), ftree.NewNode("C")),
	}, []relation.AttrSet{relation.NewAttrSet("A", "B"), relation.NewAttrSet("B", "C")})
}

// TestResolveOrderAsIs: keys that already label the pre-order prefix
// resolve over the tree itself; the rest need an arrangement or fail.
func TestResolveOrderAsIs(t *testing.T) {
	tr := retailerShape()
	for _, tc := range []struct {
		keys     []OrderKey
		ok, same bool
	}{
		{keysOf("B"), true, true},
		{keysOf("B", "A"), true, true},                      // A is the first child
		{keysOf("B", "A", "C"), true, true},                 // full pre-order
		{keysOf("B", "B"), true, true},                      // repeats are tie-free
		{keysOf("A"), false, true},                          // not a root
		{keysOf("B", "C"), true, false},                     // C moves to the front
		{keysOf("X"), false, true},                          // unknown attribute
		{[]OrderKey{{Attr: "B", Desc: true}}, true, true},   // direction is order-free
		{[]OrderKey{{Attr: "B"}, {Attr: "X"}}, false, true}, // unknown after a match
		{[]OrderKey{{Attr: "B"}, {Attr: "A", Desc: true}}, true, true},
	} {
		got, ok := resolve(t, tr, tc.keys)
		if ok != tc.ok || (got == tr) != tc.same {
			t.Errorf("ResolveOrder(%v): ok %v, same tree %v; want %v, %v", tc.keys, ok, got == tr, tc.ok, tc.same)
		}
	}
	hidden := retailerShape()
	hidden.Hidden.Add("A")
	if _, ok := resolve(t, hidden, keysOf("B", "A")); ok {
		t.Error("a key on a hidden attribute resolved")
	}
}

func TestResolveOrderSiblings(t *testing.T) {
	tr := retailerShape()
	got, ok := resolve(t, tr, keysOf("B", "C"))
	if !ok {
		t.Fatal("a sibling permutation did not resolve")
	}
	if got.Roots[0].Children[0].Attrs[0] != "C" {
		t.Fatalf("C not moved to first child: %v", got)
	}
	// A non-root first key cannot be fixed by arrangement.
	if _, ok := resolve(t, got, keysOf("A", "B")); ok {
		t.Fatal("a key below the root resolved first")
	}
}

func TestResolveOrderRootHop(t *testing.T) {
	// Forest of two independent leaves: any root order is reachable.
	tr := ftree.New([]*ftree.Node{ftree.NewNode("A"), ftree.NewNode("B")},
		[]relation.AttrSet{relation.NewAttrSet("A"), relation.NewAttrSet("B")})
	got, ok := resolve(t, tr, keysOf("B", "A"))
	if !ok {
		t.Fatal("root hop over independent leaves failed")
	}
	if got.Roots[0].Attrs[0] != "B" || got.Roots[1].Attrs[0] != "A" {
		t.Fatalf("roots not arranged: %v", got)
	}
	// A root with an unfinished subtree cannot hop.
	tr2 := ftree.New([]*ftree.Node{
		ftree.NewNode("A").Add(ftree.NewNode("C")), ftree.NewNode("B"),
	}, []relation.AttrSet{relation.NewAttrSet("A", "C"), relation.NewAttrSet("B")})
	if _, ok := resolve(t, tr2, keysOf("A", "B")); ok {
		t.Fatal("hop over an unfinished subtree resolved (C would precede B)")
	}
	// ...but a bare chain can, and as planned.
	if got, ok := resolve(t, tr2, keysOf("A", "C", "B")); !ok || got != tr2 {
		t.Fatal("bare-chain hop did not resolve over the tree itself")
	}
	// Keyed roots go first in key order, keyless ones after, as they were.
	tr3 := ftree.New([]*ftree.Node{ftree.NewNode("D"), ftree.NewNode("A"), ftree.NewNode("E"), ftree.NewNode("B")},
		[]relation.AttrSet{relation.NewAttrSet("A"), relation.NewAttrSet("B"), relation.NewAttrSet("D"), relation.NewAttrSet("E")})
	if got, ok := resolve(t, tr3, keysOf("B", "A")); !ok || fmt.Sprint(got.Roots[0].Attrs, got.Roots[1].Attrs, got.Roots[2].Attrs, got.Roots[3].Attrs) != "[B] [A] [D] [E]" {
		t.Fatalf("roots arranged as %v", got)
	}
}

func TestResolveOrderSiblingContinuation(t *testing.T) {
	// Root B with leaf children [C, A]: after pinning A first, pre-order
	// continues with B's next child — (B, A, C) and (A, C) under a constant
	// root are both reachable by arrangement alone.
	mk := func(constRoot bool) *ftree.T {
		tr := ftree.New([]*ftree.Node{
			ftree.NewNode("B").Add(ftree.NewNode("C"), ftree.NewNode("A")),
		}, []relation.AttrSet{relation.NewAttrSet("A", "B"), relation.NewAttrSet("B", "C")})
		if constRoot {
			tr.Consts.Add("B")
		}
		return tr
	}
	if _, ok := resolve(t, mk(false), keysOf("B", "A", "C")); !ok {
		t.Fatal("sibling continuation after a leaf key failed")
	}
	// Constant root, keys name only the siblings.
	if _, ok := resolve(t, mk(true), keysOf("A", "C")); !ok {
		t.Fatal("sibling continuation under a constant root failed")
	}
	// Deeper climb: B -> A -> D (leaf), then C as B's next child.
	deep := func() *ftree.T {
		return ftree.New([]*ftree.Node{
			ftree.NewNode("B").Add(ftree.NewNode("C"), ftree.NewNode("A").Add(ftree.NewNode("D"))),
		}, []relation.AttrSet{relation.NewAttrSet("A", "B", "D"), relation.NewAttrSet("B", "C")})
	}
	if _, ok := resolve(t, deep(), keysOf("B", "A", "D", "C")); !ok {
		t.Fatal("climb past an exhausted subtree failed")
	}
	// ...but climbing past an unfinished subtree must fail: D unvisited.
	if _, ok := resolve(t, deep(), keysOf("B", "A", "C")); ok {
		t.Fatal("climb over A's unvisited child D resolved (D precedes C in pre-order)")
	}
}

func TestResolveOrderSkipsConstNodes(t *testing.T) {
	tr := ftree.New([]*ftree.Node{
		ftree.NewNode("A").Add(ftree.NewNode("B")),
	}, []relation.AttrSet{relation.NewAttrSet("A", "B")})
	tr.Consts.Add("A")
	if got, ok := resolve(t, tr, keysOf("B")); !ok || got != tr {
		t.Fatal("a constant root is not transparent to ordering")
	}
	// A constant child standing before the key child: the keyed child
	// moves ahead of it, or the constant is covered in passing.
	tr2 := ftree.New([]*ftree.Node{
		ftree.NewNode("R").Add(ftree.NewNode("K"), ftree.NewNode("X"), ftree.NewNode("A")),
	}, []relation.AttrSet{relation.NewAttrSet("R", "K", "X", "A")})
	tr2.Consts.Add("K")
	got, ok := resolve(t, tr2, keysOf("R", "A"))
	if !ok || got.Roots[0].Children[0].Attrs[0] != "A" {
		t.Fatalf("keyed child not moved ahead: %v", got)
	}
	if got, ok := resolve(t, tr2, keysOf("R", "K", "X")); !ok || got != tr2 {
		t.Fatal("a key on a constant node between two keys perturbed the resolution")
	}
}

// randomForest builds a forest of 1..7 nodes labelled A0.. (a node holds a
// second attribute now and then), with constant and hidden markers.
func randomForest(rng *rand.Rand) *ftree.T {
	n := 1 + rng.Intn(7)
	nodes := make([]*ftree.Node, n)
	var roots []*ftree.Node
	for i := range nodes {
		nodes[i] = ftree.NewNode(relation.Attribute(fmt.Sprintf("A%d", i)))
		if rng.Intn(6) == 0 {
			nodes[i].Attrs = append(nodes[i].Attrs, relation.Attribute(fmt.Sprintf("B%d", i)))
		}
		if p := rng.Intn(i+1) - 1; p >= 0 {
			nodes[p].Add(nodes[i])
		} else {
			roots = append(roots, nodes[i])
		}
	}
	tr := ftree.New(roots, nil)
	for _, nd := range nodes {
		for _, a := range nd.Attrs {
			switch rng.Intn(8) {
			case 0, 1:
				tr.Consts.Add(a)
			case 2:
				tr.Hidden.Add(a)
			}
		}
	}
	return tr
}

// randomKeys draws 1..4 keys over tr's attributes, repeats allowed, and now
// and then an attribute tr does not have.
func randomKeys(rng *rand.Rand, tr *ftree.T) []OrderKey {
	attrs := tr.Attrs().Sorted()
	keys := make([]OrderKey, 1+rng.Intn(4))
	for i := range keys {
		a := relation.Attribute("X")
		if rng.Intn(12) > 0 {
			a = attrs[rng.Intn(len(attrs))]
		}
		keys[i] = OrderKey{Attr: a, Desc: rng.Intn(2) == 0}
	}
	return keys
}

// anyArrangementStreams tries every permutation of tr's roots and of each
// child list (on a clone) and reports whether the keys stream over one.
func anyArrangementStreams(tr *ftree.T, keys []OrderKey) bool {
	c := tr.Clone()
	lists := []*[]*ftree.Node{&c.Roots}
	var collect func(n *ftree.Node)
	collect = func(n *ftree.Node) {
		lists = append(lists, &n.Children)
		for _, ch := range n.Children {
			collect(ch)
		}
	}
	for _, r := range c.Roots {
		collect(r)
	}
	// arrange permutes lists[k:] in place, every permutation of one list
	// under every arrangement of the lists after it.
	var arrange func(k int) bool
	arrange = func(k int) bool {
		if k == len(lists) {
			_, ok := matchOrder(c, keys, nil)
			return ok
		}
		var permute func(l []*ftree.Node, i int) bool
		permute = func(l []*ftree.Node, i int) bool {
			if i == len(l) {
				return arrange(k + 1)
			}
			for j := i; j < len(l); j++ {
				l[i], l[j] = l[j], l[i]
				found := permute(l, i+1)
				l[i], l[j] = l[j], l[i]
				if found {
					return true
				}
			}
			return false
		}
		return permute(*lists[k], 0)
	}
	return arrange(0)
}

// Property: over random forests, ResolveOrder succeeds exactly when some
// root and sibling arrangement streams the keys, leaves its input as it
// was, and returns the input itself whenever that already streams.
func TestResolveOrderMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	resolved := 0
	for i := 0; i < 4000; i++ {
		tr := randomForest(rng)
		keys := randomKeys(rng, tr)
		got, ok := resolve(t, tr, keys)
		if want := anyArrangementStreams(tr, keys); ok != want {
			t.Fatalf("case %d: ResolveOrder(%v) = %v, brute force %v over\n%s(consts %v, hidden %v)",
				i, keys, ok, want, tr, tr.Consts.Sorted(), tr.Hidden.Sorted())
		}
		if _, asIs := matchOrder(tr, keys, nil); asIs && got != tr {
			t.Fatalf("case %d: keys %v stream over the tree as it is, but ResolveOrder returned another", i, keys)
		}
		if ok && got != tr {
			resolved++
		}
	}
	if resolved == 0 {
		t.Fatal("no case needed an arrangement")
	}
}
