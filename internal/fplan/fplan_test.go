package fplan

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/fbuild"
	"repro/internal/frep"
	"repro/internal/ftree"
	"repro/internal/relation"
)

func init() { Strict = true }

// --- fixtures -------------------------------------------------------------

// randRel builds a random relation over the given schema with values in
// [0, dom).
func randRel(rng *rand.Rand, name string, schema relation.Schema, n, dom int) *relation.Relation {
	r := relation.New(name, schema)
	for i := 0; i < n; i++ {
		t := make(relation.Tuple, len(schema))
		for j := range t {
			t[j] = relation.Value(rng.Intn(dom))
		}
		r.AppendTuple(t)
	}
	r.Dedup()
	return r
}

// chainTree builds the f-tree A0 -> A1 -> ... over one relation schema.
func chainTree(attrs []relation.Attribute, deps []relation.AttrSet) *ftree.T {
	var root, cur *ftree.Node
	for _, a := range attrs {
		n := ftree.NewNode(a)
		if cur == nil {
			root = n
		} else {
			cur.Add(n)
		}
		cur = n
	}
	return ftree.New([]*ftree.Node{root}, deps)
}

// leafPaths returns the attribute sets of tr's root-to-leaf paths.
func leafPaths(tr *ftree.T) [][]relation.Attribute {
	var out [][]relation.Attribute
	var walk func(n *ftree.Node, path []relation.Attribute)
	walk = func(n *ftree.Node, path []relation.Attribute) {
		path = append(path[:len(path):len(path)], n.Attrs...)
		if len(n.Children) == 0 {
			out = append(out, path)
		}
		for _, c := range n.Children {
			walk(c, path)
		}
	}
	for _, r := range tr.Roots {
		walk(r, nil)
	}
	return out
}

// mustEnc factorises r over tr: fbuild joins r's projections onto the
// root-to-leaf paths of tr, which is r again exactly when r factorises over
// tr — checked by tuple count.
func mustEnc(t *testing.T, tr *ftree.T, r *relation.Relation) *frep.Enc {
	t.Helper()
	var rels []*relation.Relation
	for _, p := range leafPaths(tr) {
		rels = append(rels, r.Project(p))
	}
	e, err := fbuild.BuildEnc(rels, tr)
	if err != nil {
		t.Fatal(err)
	}
	if want := r.Project(r.Schema).Cardinality(); e.Count() != int64(want) {
		t.Fatalf("relation does not factorise over the tree (represented %d tuples, relation has %d):\n%s",
			e.Count(), want, tr)
	}
	return e
}

// flatSemantics is what op means on the flat relation: the restructuring
// operators ψ, η, χ, λ, δ are the identity, μ and α select on attribute
// equality, σ filters, π projects.
func flatSemantics(op Op, in *relation.Relation) *relation.Relation {
	col := in.Schema.Index
	switch o := op.(type) {
	case Merge:
		a, b := col(o.A), col(o.B)
		return in.Select(func(tp relation.Tuple) bool { return tp[a] == tp[b] })
	case Absorb:
		a, b := col(o.A), col(o.B)
		return in.Select(func(tp relation.Tuple) bool { return tp[a] == tp[b] })
	case SelectConst:
		a := col(o.A)
		return in.Select(func(tp relation.Tuple) bool { return o.Op.eval(tp[a], o.C) })
	case SelectFn:
		a := col(o.A)
		return in.Select(func(tp relation.Tuple) bool { return o.Keep(tp[a]) })
	case Project:
		return in.Project(o.Attrs)
	}
	return in
}

// applyChecked runs op through ApplyEnc and checks what every operator owes
// its caller: ApplyEnc and ApplyTree agree on applicability (nil is returned
// for an inapplicable op), the output and its tree validate, the output
// tree is what ApplyTree makes of the input tree, the input is untouched,
// and the represented relation is op's flat semantics on the input's.
func applyChecked(t *testing.T, op Op, in *frep.Enc) *frep.Enc {
	t.Helper()
	wantTree := in.Tree.Clone()
	treeErr := op.ApplyTree(wantTree)
	inTree := in.Tree.Canonical()
	inRel := in.Relation("in")
	out, err := ApplyEnc(op, in)
	if (err == nil) != (treeErr == nil) {
		t.Fatalf("%s: ApplyEnc err %v, ApplyTree err %v\ntree:\n%s", op, err, treeErr, in.Tree)
	}
	if err != nil {
		return nil
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("%s: invalid representation: %v\ntree:\n%s", op, err, out.Tree)
	}
	if err := out.Tree.Validate(); err != nil {
		t.Fatalf("%s: invalid tree: %v\n%s", op, err, out.Tree)
	}
	if out.Tree.Canonical() != wantTree.Canonical() {
		t.Fatalf("%s: tree/data divergence:\ndata tree:\n%s\nApplyTree:\n%s", op, out.Tree, wantTree)
	}
	if in.Tree.Canonical() != inTree || !in.Relation("in").Equal(inRel) {
		t.Fatalf("%s: input mutated", op)
	}
	sameRelation(t, out, flatSemantics(op, inRel), op.String()+" differs from its flat semantics")
	return out
}

// sameRelation compares the representation against a reference relation,
// aligning schemas.
func sameRelation(t *testing.T, e *frep.Enc, want *relation.Relation, msg string) {
	t.Helper()
	got := e.Relation("got")
	w := want.Project(got.Schema)
	if !got.Equal(w) {
		t.Fatalf("%s:\ngot:\n%s\nwant:\n%s\ntree:\n%s", msg, got, w, e.Tree)
	}
}

// --- swap -----------------------------------------------------------------

// TestSwapPreservesRelation: swapping any parent-child pair leaves the
// represented relation unchanged and matches the tree-level transform.
func TestSwapPreservesRelationRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	attrs := []relation.Attribute{"A", "B", "C", "D"}
	deps := []relation.AttrSet{relation.NewAttrSet("A", "B", "C", "D")}
	for trial := 0; trial < 40; trial++ {
		r := randRel(rng, "R", relation.Schema(attrs), 1+rng.Intn(30), 3)
		if r.Cardinality() == 0 {
			continue
		}
		perm := rng.Perm(len(attrs))
		shuffled := make([]relation.Attribute, len(attrs))
		for i, p := range perm {
			shuffled[i] = attrs[p]
		}
		in := mustEnc(t, chainTree(shuffled, deps), r)
		// Swap a random adjacent pair on the chain.
		i := rng.Intn(len(shuffled) - 1)
		a, b := shuffled[i], shuffled[i+1]
		out := applyChecked(t, Swap{A: a, B: b}, in)
		if out == nil {
			t.Fatalf("trial %d: swap rejected", trial)
		}
		// The node of b must now be the parent of the node of a.
		if out.Tree.ParentOf(out.Tree.NodeOf(a)) != out.Tree.NodeOf(b) {
			t.Fatalf("trial %d: swap did not exchange the nodes:\n%s", trial, out.Tree)
		}
	}
}

// TestSwapT1ToT2Grocery reproduces Example 8: the swap χ_{item,location}
// regroups the factorisation over T1 into the one over T2.
func TestSwapT1ToT2Grocery(t *testing.T) {
	q1, rels := groceryQ1(t)
	out := applyChecked(t, Swap{A: "item", B: "location"}, mustEnc(t, groceryT1(rels), q1))
	// The post-swap tree is T2 up to sibling order, and the data must be
	// exactly the factorisation of Q1 over that tree.
	if out.Tree.Canonical() != groceryT2(rels).Canonical() {
		t.Fatalf("swap tree is not T2:\n%s", out.Tree)
	}
	want := mustEnc(t, out.Tree.Clone(), q1)
	if !out.Equal(want) {
		t.Fatalf("swap result differs from direct factorisation:\n%s\nvs\n%s", out, want)
	}
	if out.Size() != 22 {
		t.Fatalf("size after swap = %d, want 22", out.Size())
	}
}

// --- push-up / normalise ----------------------------------------------------

func TestNormalisePushesIndependentParts(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		// R(A,B) x S(C): over the chain A->B->C, C is independent.
		r := randRel(rng, "R", relation.Schema{"A", "B"}, 1+rng.Intn(15), 3)
		s := randRel(rng, "S", relation.Schema{"C"}, 1+rng.Intn(5), 5)
		if r.Cardinality() == 0 || s.Cardinality() == 0 {
			continue
		}
		tr := chainTree([]relation.Attribute{"A", "B", "C"},
			[]relation.AttrSet{relation.NewAttrSet("A", "B"), relation.NewAttrSet("C")})
		in := mustEnc(t, tr, r.Product(s))
		out := applyChecked(t, Normalise{}, in)
		if !out.Tree.IsNormalised() {
			t.Fatalf("trial %d: tree not normalised:\n%s", trial, out.Tree)
		}
		if out.Size() > in.Size() {
			t.Fatalf("trial %d: normalisation grew the representation: %d -> %d",
				trial, in.Size(), out.Size())
		}
		// C must now be a root.
		if out.Tree.ParentOf(out.Tree.NodeOf("C")) != nil {
			t.Fatalf("trial %d: C not pushed to root:\n%s", trial, out.Tree)
		}
	}
}

// --- merge ------------------------------------------------------------------

// TestMergeIsJoin: merging root nodes of two independent factorisations
// computes the equality selection A = C on their product.
func TestMergeIsJoinRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		r := randRel(rng, "R", relation.Schema{"A", "B"}, 1+rng.Intn(20), 4)
		s := randRel(rng, "S", relation.Schema{"C", "D"}, 1+rng.Intn(20), 4)
		if r.Cardinality() == 0 || s.Cardinality() == 0 {
			continue
		}
		prod, err := ProductEnc(
			mustEnc(t, chainTree([]relation.Attribute{"A", "B"}, []relation.AttrSet{relation.NewAttrSet("A", "B")}), r),
			mustEnc(t, chainTree([]relation.Attribute{"C", "D"}, []relation.AttrSet{relation.NewAttrSet("C", "D")}), s))
		if err != nil {
			t.Fatal(err)
		}
		sameRelation(t, prod, r.Product(s), "product wrong")
		if applyChecked(t, Merge{A: "A", B: "C"}, prod) == nil {
			t.Fatalf("trial %d: merge of two roots rejected", trial)
		}
	}
}

// --- absorb -----------------------------------------------------------------

// TestAbsorbIsSelection: absorbing a descendant into an ancestor computes
// the equality selection between their attributes.
func TestAbsorbIsSelectionRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	attrs := []relation.Attribute{"A", "B", "C"}
	deps := []relation.AttrSet{relation.NewAttrSet("A", "B", "C")}
	for trial := 0; trial < 40; trial++ {
		r := randRel(rng, "R", relation.Schema(attrs), 1+rng.Intn(30), 3)
		if r.Cardinality() == 0 {
			continue
		}
		out := applyChecked(t, Absorb{A: "A", B: "C"}, mustEnc(t, chainTree(attrs, deps), r))
		// A and C now share a node, also when the selection emptied the data.
		if out.Tree.NodeOf("A") != out.Tree.NodeOf("C") {
			t.Fatalf("trial %d: A and C not merged:\n%s", trial, out.Tree)
		}
	}
}

// --- selection with constant -------------------------------------------------

func TestSelectConstRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	attrs := []relation.Attribute{"A", "B", "C"}
	deps := []relation.AttrSet{relation.NewAttrSet("A", "B", "C")}
	ops := []Cmp{Eq, Ne, Lt, Le, Gt, Ge}
	for trial := 0; trial < 60; trial++ {
		r := randRel(rng, "R", relation.Schema(attrs), 1+rng.Intn(30), 4)
		if r.Cardinality() == 0 {
			continue
		}
		op := SelectConst{A: attrs[rng.Intn(len(attrs))], Op: ops[rng.Intn(len(ops))], C: relation.Value(rng.Intn(4))}
		if applyChecked(t, op, mustEnc(t, chainTree(attrs, deps), r)) == nil {
			t.Fatalf("trial %d: %s rejected", trial, op)
		}
	}
}

func TestSelectConstEqMakesRoot(t *testing.T) {
	// After σ_{B=c} on chain A->B->C, B is constant and floats to a root.
	r := relation.New("R", relation.Schema{"A", "B", "C"})
	r.Append(1, 5, 1)
	r.Append(1, 5, 2)
	r.Append(2, 5, 1)
	r.Append(2, 6, 1)
	tr := chainTree([]relation.Attribute{"A", "B", "C"},
		[]relation.AttrSet{relation.NewAttrSet("A", "B", "C")})
	out := applyChecked(t, SelectConst{A: "B", Op: Eq, C: 5}, mustEnc(t, tr, r))
	if out.Tree.ParentOf(out.Tree.NodeOf("B")) != nil {
		t.Fatalf("constant node B should be a root:\n%s", out.Tree)
	}
}

// --- projection ----------------------------------------------------------------

func TestProjectRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	attrs := []relation.Attribute{"A", "B", "C"}
	deps := []relation.AttrSet{relation.NewAttrSet("A", "B", "C")}
	for trial := 0; trial < 60; trial++ {
		r := randRel(rng, "R", relation.Schema(attrs), 1+rng.Intn(30), 3)
		if r.Cardinality() == 0 {
			continue
		}
		// Keep a random non-empty subset.
		var keep []relation.Attribute
		for _, a := range attrs {
			if rng.Intn(2) == 0 {
				keep = append(keep, a)
			}
		}
		if len(keep) == 0 {
			keep = []relation.Attribute{attrs[rng.Intn(3)]}
		}
		out := applyChecked(t, Project{Attrs: keep}, mustEnc(t, chainTree(attrs, deps), r))
		// No all-hidden nodes may remain.
		for a := range out.Tree.Attrs() {
			if out.Tree.AllHidden(out.Tree.NodeOf(a)) {
				t.Fatalf("trial %d: all-hidden node for %q survived:\n%s", trial, a, out.Tree)
			}
		}
	}
}

// TestProjectInducedDependence reproduces the Section 3.4 pitfall: on the
// path A - B - C with relations {A,B}, {B,C}, projecting away B must keep A
// and C dependent (no flattening into independent roots) and must not
// produce duplicates.
func TestProjectInducedDependence(t *testing.T) {
	r := relation.New("R", relation.Schema{"A", "B", "C"})
	// A=1 pairs with C=1 via B=1 and with C=2 via B=2; A=2 only with C=2.
	r.Append(1, 1, 1)
	r.Append(1, 2, 2)
	r.Append(2, 2, 2)
	tr := chainTree([]relation.Attribute{"A", "B", "C"},
		[]relation.AttrSet{relation.NewAttrSet("A", "B"), relation.NewAttrSet("B", "C")})
	out := applyChecked(t, Project{Attrs: []relation.Attribute{"A", "C"}}, mustEnc(t, tr, r))
	// A and C must still be on one path: a forest of {A} and {C} would
	// represent the cartesian product {1,2}x{1,2}, which is wrong.
	if len(out.Tree.Roots) != 1 {
		t.Fatalf("A and C flattened into independent roots:\n%s", out.Tree)
	}
}

// --- product ---------------------------------------------------------------------

func TestProductOperator(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := randRel(rng, "R", relation.Schema{"A", "B"}, 10, 3)
	s := randRel(rng, "S", relation.Schema{"C"}, 4, 5)
	fr := mustEnc(t, chainTree([]relation.Attribute{"A", "B"},
		[]relation.AttrSet{relation.NewAttrSet("A", "B")}), r)
	fs := mustEnc(t, chainTree([]relation.Attribute{"C"},
		[]relation.AttrSet{relation.NewAttrSet("C")}), s)
	prod, err := ProductEnc(fr, fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := prod.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := prod.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if prod.Size() != fr.Size()+fs.Size() {
		t.Fatalf("product size %d, want %d", prod.Size(), fr.Size()+fs.Size())
	}
	sameRelation(t, prod, r.Product(s), "product wrong")
	// Overlapping schemas must be rejected.
	if _, err := ProductEnc(fr, fr); err == nil {
		t.Fatal("product over overlapping schemas accepted")
	}
}

func TestProductWithEmpty(t *testing.T) {
	r := relation.New("R", relation.Schema{"A"})
	r.Append(1)
	e := relation.New("E", relation.Schema{"B"})
	fr := mustEnc(t, chainTree([]relation.Attribute{"A"}, nil), r)
	fe := mustEnc(t, chainTree([]relation.Attribute{"B"}, nil), e)
	prod, err := ProductEnc(fr, fe)
	if err != nil {
		t.Fatal(err)
	}
	if !prod.IsEmpty() || prod.Count() != 0 {
		t.Fatal("product with empty side should be empty")
	}
}

// --- plan simulation ----------------------------------------------------------------

func TestPlanSimulateTreeExample11(t *testing.T) {
	// The two plans of Example 11: costs 2 and 1 respectively.
	b := ftree.NewNode("B").Add(ftree.NewNode("C"))
	e := ftree.NewNode("E").Add(ftree.NewNode("F"))
	ad := ftree.NewNode("A", "D").Add(b, e)
	in := ftree.New([]*ftree.Node{ad}, []relation.AttrSet{
		relation.NewAttrSet("A", "B", "C"),
		relation.NewAttrSet("D", "E", "F"),
	})

	p1 := Plan{Ops: []Op{Swap{A: "A", B: "B"}, Absorb{A: "B", B: "F"}}}
	f1, s1, err := p1.SimulateTree(in)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != 2 {
		t.Fatalf("cost of plan 1 = %v, want 2", s1)
	}

	p2 := Plan{Ops: []Op{Swap{A: "E", B: "F"}, Merge{A: "B", B: "F"}}}
	f2, s2, err := p2.SimulateTree(in)
	if err != nil {
		t.Fatal(err)
	}
	if s2 != 1 {
		t.Fatalf("cost of plan 2 = %v, want 1", s2)
	}

	// Both plans produce trees with B and F merged.
	if f1.NodeOf("B") != f1.NodeOf("F") || f2.NodeOf("B") != f2.NodeOf("F") {
		t.Fatal("plans did not merge B and F")
	}
	if p2.String() != "χ[E,F] ; μ[B,F]" {
		t.Fatalf("plan rendering = %q", p2.String())
	}
}

// TestExecuteEnc: a plan runs its operators in order on the encoding, and
// polls the context before each one.
func TestExecuteEnc(t *testing.T) {
	q1, rels := groceryQ1(t)
	in := mustEnc(t, groceryT1(rels), q1)
	plan := Plan{Ops: []Op{Swap{A: "item", B: "location"}, SelectConst{A: "oid", Op: Ge, C: 0}}}
	out, err := plan.ExecuteEnc(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	want := applyChecked(t, plan.Ops[1], applyChecked(t, plan.Ops[0], in))
	if !out.Equal(want) {
		t.Fatalf("plan result differs from applying its operators one by one:\n%s\nvs\n%s", out, want)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := plan.ExecuteEnc(ctx, in); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: got %v", err)
	}
}

// --- grocery fixtures shared by tests -----------------------------------------

func groceryQ1(t *testing.T) (*relation.Relation, []relation.AttrSet) {
	t.Helper()
	d := relation.NewDict()
	e := d.Encode
	type pair [2]string
	orders := []pair{{"01", "Milk"}, {"01", "Cheese"}, {"02", "Melon"}, {"03", "Cheese"}, {"03", "Melon"}}
	store := []pair{{"Istanbul", "Milk"}, {"Istanbul", "Cheese"}, {"Istanbul", "Melon"},
		{"Izmir", "Milk"}, {"Antalya", "Milk"}, {"Antalya", "Cheese"}}
	disp := []pair{{"Adnan", "Istanbul"}, {"Adnan", "Izmir"}, {"Yasemin", "Istanbul"}, {"Volkan", "Antalya"}}
	q1 := relation.New("Q1", relation.Schema{"item", "oid", "location", "dispatcher"})
	for _, o := range orders {
		for _, s := range store {
			if o[1] != s[1] {
				continue
			}
			for _, dd := range disp {
				if dd[1] != s[0] {
					continue
				}
				q1.Append(e(o[1]), e(o[0]), e(s[0]), e(dd[0]))
			}
		}
	}
	q1.Dedup()
	rels := []relation.AttrSet{
		relation.NewAttrSet("oid", "item"),
		relation.NewAttrSet("location", "item"),
		relation.NewAttrSet("dispatcher", "location"),
	}
	return q1, rels
}

func groceryT1(rels []relation.AttrSet) *ftree.T {
	item := ftree.NewNode("item")
	item.Add(ftree.NewNode("oid"), ftree.NewNode("location").Add(ftree.NewNode("dispatcher")))
	return ftree.New([]*ftree.Node{item}, rels)
}

func groceryT2(rels []relation.AttrSet) *ftree.T {
	loc := ftree.NewNode("location")
	loc.Add(ftree.NewNode("item").Add(ftree.NewNode("oid")), ftree.NewNode("dispatcher"))
	return ftree.New([]*ftree.Node{loc}, rels)
}
