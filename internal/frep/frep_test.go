package frep

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/ftree"
	"repro/internal/relation"
)

// grocery builds the database of the paper's Figure 1 with a dictionary.
type grocery struct {
	dict                                *relation.Dict
	orders, store, disp, produce, serve *relation.Relation
}

func newGrocery() *grocery {
	g := &grocery{dict: relation.NewDict()}
	e := g.dict.Encode
	g.orders = relation.New("Orders", relation.Schema{"oid", "item"})
	for _, r := range [][2]string{{"01", "Milk"}, {"01", "Cheese"}, {"02", "Melon"}, {"03", "Cheese"}, {"03", "Melon"}} {
		g.orders.Append(e(r[0]), e(r[1]))
	}
	g.store = relation.New("Store", relation.Schema{"location", "item"})
	for _, r := range [][2]string{{"Istanbul", "Milk"}, {"Istanbul", "Cheese"}, {"Istanbul", "Melon"},
		{"Izmir", "Milk"}, {"Antalya", "Milk"}, {"Antalya", "Cheese"}} {
		g.store.Append(e(r[0]), e(r[1]))
	}
	g.disp = relation.New("Disp", relation.Schema{"dispatcher", "location"})
	for _, r := range [][2]string{{"Adnan", "Istanbul"}, {"Adnan", "Izmir"}, {"Yasemin", "Istanbul"}, {"Volkan", "Antalya"}} {
		g.disp.Append(e(r[0]), e(r[1]))
	}
	g.produce = relation.New("Produce", relation.Schema{"supplier", "item"})
	for _, r := range [][2]string{{"Guney", "Milk"}, {"Guney", "Cheese"}, {"Dikici", "Milk"}, {"Byzantium", "Melon"}} {
		g.produce.Append(e(r[0]), e(r[1]))
	}
	g.serve = relation.New("Serve", relation.Schema{"supplier", "location"})
	for _, r := range [][2]string{{"Guney", "Antalya"}, {"Dikici", "Istanbul"}, {"Dikici", "Izmir"},
		{"Dikici", "Antalya"}, {"Byzantium", "Istanbul"}} {
		g.serve.Append(e(r[0]), e(r[1]))
	}
	return g
}

// q1 computes Q1 = Orders ⋈item Store ⋈location Disp as a flat relation
// with schema (item, oid, location, dispatcher).
func (g *grocery) q1() *relation.Relation {
	out := relation.New("Q1", relation.Schema{"item", "oid", "location", "dispatcher"})
	for _, o := range g.orders.Tuples {
		for _, s := range g.store.Tuples {
			if o[1] != s[1] {
				continue
			}
			for _, d := range g.disp.Tuples {
				if d[1] != s[0] {
					continue
				}
				out.Append(o[1], o[0], s[0], d[0])
			}
		}
	}
	out.Dedup()
	return out
}

// q2 computes Q2 = Produce ⋈supplier Serve with schema
// (supplier, item, location).
func (g *grocery) q2() *relation.Relation {
	out := relation.New("Q2", relation.Schema{"supplier", "item", "location"})
	for _, p := range g.produce.Tuples {
		for _, s := range g.serve.Tuples {
			if p[0] == s[0] {
				out.Append(p[0], p[1], s[1])
			}
		}
	}
	out.Dedup()
	return out
}

func q1Rels() []relation.AttrSet {
	return []relation.AttrSet{
		relation.NewAttrSet("oid", "item"),
		relation.NewAttrSet("location", "item"),
		relation.NewAttrSet("dispatcher", "location"),
	}
}

func t1() *ftree.T {
	item := ftree.NewNode("item")
	item.Add(ftree.NewNode("oid"), ftree.NewNode("location").Add(ftree.NewNode("dispatcher")))
	return ftree.New([]*ftree.Node{item}, q1Rels())
}

func t2() *ftree.T {
	loc := ftree.NewNode("location")
	loc.Add(ftree.NewNode("item").Add(ftree.NewNode("oid")), ftree.NewNode("dispatcher"))
	return ftree.New([]*ftree.Node{loc}, q1Rels())
}

func t3() *ftree.T {
	sup := ftree.NewNode("supplier")
	sup.Add(ftree.NewNode("item"), ftree.NewNode("location"))
	return ftree.New([]*ftree.Node{sup}, []relation.AttrSet{
		relation.NewAttrSet("supplier", "item"),
		relation.NewAttrSet("supplier", "location"),
	})
}

// TestExample1SizesT1 reproduces the factorisation sizes of Example 1: the
// Q1 result has 14 tuples (56 data elements flat); its f-representation
// over T1 has 23 singletons and over T2 has 22 singletons.
func TestExample1Sizes(t *testing.T) {
	g := newGrocery()
	q1 := g.q1()
	if q1.Cardinality() != 14 {
		t.Fatalf("Q1 cardinality = %d, want 14", q1.Cardinality())
	}
	f1, err := fromRelation(t1(), q1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f1.Validate(); err != nil {
		t.Fatal(err)
	}
	if f1.Size() != 23 {
		t.Fatalf("size over T1 = %d, want 23\n%s", f1.Size(), f1.String())
	}
	if f1.Count() != 14 {
		t.Fatalf("count over T1 = %d, want 14", f1.Count())
	}
	f2, err := fromRelation(t2(), q1)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Size() != 22 {
		t.Fatalf("size over T2 = %d, want 22\n%s", f2.Size(), f2.String())
	}
	// Both factorisations represent the same relation (align schemas, since
	// enumeration order follows each tree's own attribute order).
	if !f1.Relation("r").Project(q1.Schema).Equal(q1) ||
		!f2.Relation("r").Project(q1.Schema).Equal(q1) {
		t.Fatal("factorisations do not round-trip to Q1")
	}
}

func TestExample1Q2OverT3(t *testing.T) {
	g := newGrocery()
	q2 := g.q2()
	f3, err := fromRelation(t3(), q2)
	if err != nil {
		t.Fatal(err)
	}
	if f3.Size() != 12 {
		t.Fatalf("size over T3 = %d, want 12\n%s", f3.Size(), f3.String())
	}
	if !f3.Relation("r").Equal(q2) {
		t.Fatal("T3 factorisation does not round-trip to Q2")
	}
}

// TestExample3NonFactorisable: R = {(1,1),(1,2),(2,2)} over {A},{B} as
// independent roots does not factorise; over A->B it does.
func TestExample3NonFactorisable(t *testing.T) {
	r := relation.New("R", relation.Schema{"A", "B"})
	r.Append(1, 1)
	r.Append(1, 2)
	r.Append(2, 2)

	forest := ftree.New(
		[]*ftree.Node{ftree.NewNode("A"), ftree.NewNode("B")},
		[]relation.AttrSet{relation.NewAttrSet("A"), relation.NewAttrSet("B")})
	if _, err := fromRelation(forest, r); err == nil {
		t.Fatal("non-factorisable relation accepted over independent roots")
	}

	chain := ftree.New(
		[]*ftree.Node{ftree.NewNode("A").Add(ftree.NewNode("B"))},
		[]relation.AttrSet{relation.NewAttrSet("A", "B")})
	f, err := fromRelation(chain, r)
	if err != nil {
		t.Fatal(err)
	}
	// ⟨A:1⟩×(⟨B:1⟩∪⟨B:2⟩) ∪ ⟨A:2⟩×⟨B:2⟩ has 5 singletons.
	if f.Size() != 5 {
		t.Fatalf("size = %d, want 5\n%s", f.Size(), f)
	}
	if !f.Relation("r").Equal(r) {
		t.Fatal("round-trip failed")
	}
}

func TestEmptyRelation(t *testing.T) {
	r := relation.New("R", relation.Schema{"A", "B"})
	chain := ftree.New(
		[]*ftree.Node{ftree.NewNode("A").Add(ftree.NewNode("B"))},
		[]relation.AttrSet{relation.NewAttrSet("A", "B")})
	f, err := fromRelation(chain, r)
	if err != nil {
		t.Fatal(err)
	}
	if !f.IsEmpty() || f.Size() != 0 || f.Count() != 0 {
		t.Fatal("empty relation not represented as empty")
	}
	if f.Relation("r").Cardinality() != 0 {
		t.Fatal("empty frep enumerates tuples")
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEnumerationOrderAndCount(t *testing.T) {
	g := newGrocery()
	f, err := fromRelation(t1(), g.q1())
	if err != nil {
		t.Fatal(err)
	}
	var tuples []relation.Tuple
	f.Enumerate(func(tp relation.Tuple) bool {
		tuples = append(tuples, tp.Clone())
		return true
	})
	if int64(len(tuples)) != f.Count() {
		t.Fatalf("enumerated %d tuples, Count() = %d", len(tuples), f.Count())
	}
	if !sort.SliceIsSorted(tuples, func(i, j int) bool {
		return tuples[i].Compare(tuples[j]) < 0
	}) {
		t.Fatal("enumeration not in lexicographic order")
	}
	for i := 1; i < len(tuples); i++ {
		if tuples[i].Compare(tuples[i-1]) == 0 {
			t.Fatal("duplicate tuple enumerated")
		}
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	g := newGrocery()
	f, err := fromRelation(t1(), g.q1())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	f.Enumerate(func(relation.Tuple) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop enumerated %d tuples, want 3", n)
	}
}

func TestEqual(t *testing.T) {
	g := newGrocery()
	q1 := g.q1()
	f, err := fromRelation(t1(), q1)
	if err != nil {
		t.Fatal(err)
	}
	same, err := fromRelation(t1(), q1)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Equal(same) {
		t.Fatal("two builds of the same relation over the same tree differ")
	}
	q1.Tuples = q1.Tuples[1:]
	fewer, err := fromRelation(t1(), q1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Equal(fewer) {
		t.Fatal("representations of different relations compare equal")
	}
	if other, err := fromRelation(t2(), g.q1()); err != nil || f.Equal(other) {
		t.Fatalf("representations over different trees compare equal (err %v)", err)
	}
}

func TestValidateCatchesOrderViolation(t *testing.T) {
	g := newGrocery()
	f, err := fromRelation(t1(), g.q1())
	if err != nil {
		t.Fatal(err)
	}
	// Swap two root entries to break ordering.
	root := f.Vals(f.Roots()[0])
	root[0], root[1] = root[1], root[0]
	if err := f.Validate(); err == nil {
		t.Fatal("order violation not detected")
	}
}

func TestSchemaDFSOrder(t *testing.T) {
	f := NewEmptyEnc(t1())
	want := relation.Schema{"item", "oid", "location", "dispatcher"}
	if !f.Schema().Equal(want) {
		t.Fatalf("Schema() = %v, want %v", f.Schema(), want)
	}
}

// randomPathTree returns a chain f-tree over the given attributes (a chain
// satisfies the path constraint for any dependency structure).
func randomPathTree(attrs []relation.Attribute, rng *rand.Rand, deps []relation.AttrSet) *ftree.T {
	perm := rng.Perm(len(attrs))
	var root, cur *ftree.Node
	for _, i := range perm {
		n := ftree.NewNode(attrs[i])
		if cur == nil {
			root = n
		} else {
			cur.Add(n)
		}
		cur = n
	}
	return ftree.New([]*ftree.Node{root}, deps)
}

// Property: every relation round-trips through a factorisation over any
// chain f-tree (chains always satisfy the path constraint).
func TestRoundTripChainProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	attrs := []relation.Attribute{"A", "B", "C"}
	deps := []relation.AttrSet{relation.NewAttrSet("A", "B", "C")}
	for trial := 0; trial < 50; trial++ {
		r := relation.New("R", relation.Schema(attrs))
		for i := 0; i < rng.Intn(20); i++ {
			r.Append(relation.Value(rng.Intn(3)), relation.Value(rng.Intn(3)), relation.Value(rng.Intn(3)))
		}
		r.Dedup()
		tr := randomPathTree(attrs, rng, deps)
		f, err := fromRelation(tr, r)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := f.Relation("got")
		// Align schemas before comparing.
		if !got.Project(attrs).Equal(r) {
			t.Fatalf("trial %d: round-trip failed\nin:\n%s\nout:\n%s", trial, r, got)
		}
		if f.Count() != int64(r.Cardinality()) {
			t.Fatalf("trial %d: count %d != cardinality %d", trial, f.Count(), r.Cardinality())
		}
	}
}

// Property: a product of independent relations factorises over the forest
// of its factors, and the factorised size is the sum (not product) of the
// factor sizes — the exponential-gap mechanism of Section 1.
func TestProductFactorisationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		ra := relation.New("RA", relation.Schema{"A"})
		rb := relation.New("RB", relation.Schema{"B"})
		na, nb := 1+rng.Intn(8), 1+rng.Intn(8)
		for i := 0; i < na; i++ {
			ra.Append(relation.Value(i * 2))
		}
		for i := 0; i < nb; i++ {
			rb.Append(relation.Value(i*3 + 1))
		}
		prod := ra.Product(rb)
		forest := ftree.New(
			[]*ftree.Node{ftree.NewNode("A"), ftree.NewNode("B")},
			[]relation.AttrSet{relation.NewAttrSet("A"), relation.NewAttrSet("B")})
		f, err := fromRelation(forest, prod)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if f.Size() != na+nb {
			t.Fatalf("trial %d: factorised size %d, want %d", trial, f.Size(), na+nb)
		}
		if f.Count() != int64(na*nb) {
			t.Fatalf("trial %d: count %d, want %d", trial, f.Count(), na*nb)
		}
	}
}

func TestFromRelationMissingAttr(t *testing.T) {
	r := relation.New("R", relation.Schema{"A"})
	chain := ftree.New(
		[]*ftree.Node{ftree.NewNode("A").Add(ftree.NewNode("B"))},
		[]relation.AttrSet{relation.NewAttrSet("A", "B")})
	if _, err := fromRelation(chain, r); err == nil {
		t.Fatal("missing attribute accepted")
	}
}

func TestClassValueMismatch(t *testing.T) {
	// Node {A,B} requires A=B on every tuple.
	r := relation.New("R", relation.Schema{"A", "B"})
	r.Append(1, 2)
	tr := ftree.New(
		[]*ftree.Node{ftree.NewNode("A", "B")},
		[]relation.AttrSet{relation.NewAttrSet("A", "B")})
	if _, err := fromRelation(tr, r); err == nil {
		t.Fatal("class value mismatch accepted")
	}
}

func TestSizeCountsClassAttrs(t *testing.T) {
	// A merged class {A,B} contributes one singleton per attribute.
	r := relation.New("R", relation.Schema{"A", "B"})
	r.Append(1, 1)
	r.Append(2, 2)
	tr := ftree.New(
		[]*ftree.Node{ftree.NewNode("A", "B")},
		[]relation.AttrSet{relation.NewAttrSet("A", "B")})
	f, err := fromRelation(tr, r)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 4 {
		t.Fatalf("size = %d, want 4 (2 entries x 2 attrs)", f.Size())
	}
}

func TestStringRendering(t *testing.T) {
	r := relation.New("R", relation.Schema{"A", "B"})
	r.Append(1, 1)
	r.Append(1, 2)
	chain := ftree.New(
		[]*ftree.Node{ftree.NewNode("A").Add(ftree.NewNode("B"))},
		[]relation.AttrSet{relation.NewAttrSet("A", "B")})
	f, err := fromRelation(chain, r)
	if err != nil {
		t.Fatal(err)
	}
	got := f.String()
	want := "⟨A:1⟩×(⟨B:1⟩ ∪ ⟨B:2⟩)"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
