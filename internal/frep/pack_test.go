package frep

import (
	"math/rand"
	"testing"

	"repro/internal/ftree"
	"repro/internal/relation"
)

// packTree has two roots: A → {B → C, D} and the leaf E.
func packTree() *ftree.T {
	a := ftree.NewNode("A").Add(ftree.NewNode("B").Add(ftree.NewNode("C")), ftree.NewNode("D"))
	return ftree.New([]*ftree.Node{a, ftree.NewNode("E")}, []relation.AttrSet{
		relation.NewAttrSet("A", "B", "C"), relation.NewAttrSet("A", "D"), relation.NewAttrSet("E")})
}

// packEntry is one entry of a node with its child unions, one per child.
type packEntry struct {
	v    relation.Value
	kids [][]packEntry
}

// packUnion draws a union of 1..4 entries with strictly increasing values,
// each with room for kids child unions.
func packUnion(rng *rand.Rand, kids int) []packEntry {
	u := make([]packEntry, 1+rng.Intn(4))
	v := relation.Value(0)
	for i := range u {
		v += 1 + relation.Value(rng.Intn(3))
		u[i].v = v
		u[i].kids = make([][]packEntry, kids)
	}
	return u
}

// emit appends the entries of union u at node ni, closing each entry's
// child unions but not u itself.
func emit(b *EncBuilder, ni int, u []packEntry) {
	for _, e := range u {
		b.Append(ni, e.v)
		for k, c := range b.Kids(ni) {
			emit(b, c, e.kids[k])
			b.CloseUnion(c)
		}
	}
}

// TestFinishPacksBuilders: builders that split one root's entries in value
// order, each leaving that union open, one of them empty, with the second
// root closed by the first builder only, pack into the representation the
// same entries built in one builder make.
func TestFinishPacksBuilders(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		tr := packTree()
		one := NewEncBuilder(tr)
		ai, ei := one.Idx(tr.Roots[0]), one.Idx(tr.Roots[1])
		// A's entries, each with a B union (each B entry with a C union)
		// and a D union.
		as := make([]packEntry, 2+rng.Intn(20))
		for i := range as {
			as[i].v = relation.Value(3 * i)
			b := packUnion(rng, 1)
			for j := range b {
				b[j].kids[0] = packUnion(rng, 0)
			}
			as[i].kids = [][]packEntry{b, packUnion(rng, 0)}
		}
		es := packUnion(rng, 0)
		emit(one, ai, as)
		one.CloseUnion(ai)
		emit(one, ei, es)
		one.CloseUnion(ei)
		want := one.Finish()

		// Split A's entries at two cuts into three runs, then put an empty
		// builder at a random place among them.
		c1 := rng.Intn(len(as) + 1)
		c2 := c1 + rng.Intn(len(as)-c1+1)
		parts := []*EncBuilder{NewEncBuilder(tr), NewEncBuilder(tr), NewEncBuilder(tr)}
		for k, run := range [][]packEntry{as[:c1], as[c1:c2], as[c2:]} {
			emit(parts[k], ai, run)
		}
		emit(parts[0], ei, es)
		parts[0].CloseUnion(ei)
		parts = append(parts, nil)
		at := 1 + rng.Intn(len(parts)-1)
		copy(parts[at+1:], parts[at:])
		parts[at] = NewEncBuilder(tr)

		got := parts[0].Finish(parts[1:]...)
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !got.Equal(want) || got.IsEmpty() {
			t.Fatalf("trial %d (cuts %d, %d; empty part %d): packed %s\nwant %s", trial, c1, c2, at, got, want)
		}
	}
}

// TestFinishEmptyRoot: a root union that no builder gives an entry packs
// as ∅, as does the canonical empty representation, whose roots are one
// empty union each. Over a tree without roots only the latter is empty.
func TestFinishEmptyRoot(t *testing.T) {
	tr := packTree()
	b := NewEncBuilder(tr)
	ei := b.Idx(tr.Roots[1])
	b.Append(ei, 1)
	b.CloseUnion(ei)
	for _, e := range []*Enc{b.Finish(NewEncBuilder(tr)), NewEmptyEnc(tr)} {
		if err := e.Validate(); err != nil {
			t.Fatal(err)
		}
		if !e.IsEmpty() || e.NumUnions(b.Idx(tr.Roots[0])) != 1 {
			t.Fatalf("%s: empty %v with %d unions at A", e, e.IsEmpty(), e.NumUnions(0))
		}
	}
	none := ftree.New(nil, nil)
	if NewEncBuilder(none).Finish().IsEmpty() || !NewEmptyEnc(none).IsEmpty() {
		t.Fatal("over no roots, a build is the nullary tuple and NewEmptyEnc is ∅")
	}
	r := relation.New("R", relation.Schema{"A", "B", "C", "D", "E"})
	r.Append(1, 1, 1, 1, 1)
	one, err := fromRelation(tr, r)
	if err != nil {
		t.Fatal(err)
	}
	if p := ConcatEnc(tr, NewEmptyEnc(none), one); !p.IsEmpty() || p.Validate() != nil {
		t.Fatal("a product with ∅ over no roots is not empty")
	}
}

// ConcatEnc mirrors the Cartesian product at the data level.
func TestEncConcatProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mk := func(attr relation.Attribute, n int) *Enc {
		r := relation.New("R", relation.Schema{attr})
		for i := 0; i < n; i++ {
			r.Append(relation.Value(rng.Intn(50)))
		}
		r.Dedup()
		tr := ftree.New([]*ftree.Node{ftree.NewNode(attr)}, []relation.AttrSet{relation.NewAttrSet(attr)})
		e, err := fromRelation(tr, r)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := mk("X", 8), mk("Y", 5)
	tree := &ftree.T{
		Roots:  append(append([]*ftree.Node{}, a.Tree.Roots...), b.Tree.Roots...),
		Rels:   append(append([]relation.AttrSet{}, a.Tree.Rels...), b.Tree.Rels...),
		Deps:   append(append([]relation.AttrSet{}, a.Tree.Deps...), b.Tree.Deps...),
		Hidden: a.Tree.Hidden.Union(b.Tree.Hidden),
		Consts: a.Tree.Consts.Union(b.Tree.Consts),
	}
	p := ConcatEnc(tree, a, b)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Count() != a.Count()*b.Count() {
		t.Fatalf("product count %d, want %d", p.Count(), a.Count()*b.Count())
	}
}
