package frep

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ftree"
	"repro/internal/relation"
)

// quickEnc builds a random factorised representation.
func quickEnc(seed int64) *Enc {
	e, err := fromRelation(quickTree(seed), quickRel(seed))
	if err != nil {
		panic(err) // chains factorise everything
	}
	return e
}

// Property: enumeration (push and pull) yields exactly the tuples of the
// source relation, in lexicographic order of the representation's schema,
// and the representation validates.
func TestQuickEncEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		e := quickEnc(seed)
		if err := e.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		sorted := quickRel(seed).Project(e.Schema())
		sorted.Sort()
		want := sorted.Tuples
		var got []relation.Tuple
		e.Enumerate(func(tp relation.Tuple) bool {
			got = append(got, tp.Clone())
			return true
		})
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Compare(want[i]) != 0 {
				return false
			}
		}
		// Pull-based, twice (Reset in between).
		it := NewEncIterator(e, nil)
		for pass := 0; pass < 2; pass++ {
			i := 0
			for {
				tp, ok := it.Next()
				if !ok {
					break
				}
				if i >= len(want) || tp.Compare(want[i]) != 0 {
					return false
				}
				i++
			}
			if i != len(want) {
				return false
			}
			it.Reset()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The empty representation behaves.
func TestEncEmpty(t *testing.T) {
	tr := ftree.New([]*ftree.Node{ftree.NewNode("A").Add(ftree.NewNode("B"))},
		[]relation.AttrSet{relation.NewAttrSet("A", "B")})
	e := NewEmptyEnc(tr)
	if !e.IsEmpty() || e.Count() != 0 || e.Size() != 0 {
		t.Fatalf("empty enc misbehaves: empty=%v count=%d size=%d", e.IsEmpty(), e.Count(), e.Size())
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	n := 0
	e.Enumerate(func(relation.Tuple) bool { n++; return true })
	if n != 0 {
		t.Fatalf("empty enc enumerated %d tuples", n)
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

// DropLeaf removes exactly one leaf column and keeps everything else.
func TestEncDropLeaf(t *testing.T) {
	e := quickEnc(3)
	// Find a leaf node index.
	leaf := -1
	var leafNode *ftree.Node
	for ni := 0; ni < e.NodeCount(); ni++ {
		if len(e.Kids(ni)) == 0 {
			leaf, leafNode = ni, e.Node(ni)
		}
	}
	if leaf < 0 {
		t.Skip("no leaf")
	}
	nt := e.Tree // DropLeaf contract: tree already mutated by the caller
	if err := nt.RemoveLeaf(leafNode); err != nil {
		t.Fatal(err)
	}
	d := e.DropLeaf(nt, leaf)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NodeCount() != e.NodeCount()-1 {
		t.Fatalf("node count %d, want %d", d.NodeCount(), e.NodeCount()-1)
	}
}
