package fbuild

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/ftree"
	"repro/internal/gen"
	"repro/internal/opt"
	"repro/internal/relation"
)

// buildTreeFor derives an optimal f-tree for the query.
func buildTreeFor(t *testing.T, q *core.Query) *ftree.T {
	t.Helper()
	tr, _, err := opt.OptimalFTree(q.Classes(), q.Schemas(), opt.TreeSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("optimal tree invalid: %v\n%s", err, tr)
	}
	return tr
}

// TestGroceryQ1 builds Q1 = Orders ⋈ Store ⋈ Disp factorised and checks it
// against the reference evaluator.
func TestGroceryQ1(t *testing.T) {
	rels, _ := gen.Grocery()
	q := &core.Query{
		Relations: rels[:3], // Orders, Store, Disp
		Equalities: []core.Equality{
			{A: "o_item", B: "s_item"},
			{A: "s_location", B: "d_location"},
		},
	}
	tr := buildTreeFor(t, q)
	f, err := BuildEnc(q.Relations, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	want, err := q.EvaluateFlat()
	if err != nil {
		t.Fatal(err)
	}
	if want.Cardinality() != 14 {
		t.Fatalf("reference Q1 has %d tuples, want 14", want.Cardinality())
	}
	got := f.Relation("got").Project(want.Schema)
	if !got.Equal(want) {
		t.Fatalf("factorised Q1 wrong:\n%s\nwant:\n%s\ntree:\n%s", got, want, tr)
	}
	if f.Count() != 14 {
		t.Fatalf("Count = %d, want 14", f.Count())
	}
	// The factorised result must be smaller than the flat one.
	if flat := len(want.Tuples) * len(want.Schema); f.Size() >= flat {
		t.Fatalf("factorised size %d not below flat size %d", f.Size(), flat)
	}
}

// TestRandomJoinsAgainstReference is the main end-to-end property test:
// random schemas, data and equalities; the factorised result over an
// optimal f-tree must equal the reference nested-loop evaluation.
func TestRandomJoinsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		r := 1 + rng.Intn(3)
		a := r + rng.Intn(4)
		k := rng.Intn(min(a-1, 3) + 1)
		n, m := 1+rng.Intn(8), 4
		if trial >= 60 {
			// Larger instances: unions wide enough for the leapfrog seeks
			// to skip.
			r, a, k, n, m = 3, 7, 2, 40, 8
		}
		q, err := gen.RandomQuery(rng, r, a, n, k, gen.Uniform, m)
		if err != nil {
			t.Fatal(err)
		}
		tr := buildTreeFor(t, q)
		f, err := BuildEnc(cloneRels(q.Relations), tr)
		if err != nil {
			t.Fatalf("trial %d: %v\ntree:\n%s", trial, err, tr)
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := q.EvaluateFlat()
		if err != nil {
			t.Fatal(err)
		}
		if f.IsEmpty() {
			if want.Cardinality() != 0 {
				t.Fatalf("trial %d: engine says empty, reference has %d tuples", trial, want.Cardinality())
			}
			continue
		}
		got := f.Relation("got").Project(want.Schema)
		if !got.Equal(want) {
			t.Fatalf("trial %d: mismatch\ngot:\n%s\nwant:\n%s\ntree:\n%s", trial, got, want, tr)
		}
	}
}

// TestChainQueryFactorisationGap checks Example 6: on chain queries the
// factorised size stays near-linear while the flat result explodes.
func TestChainQueryFactorisationGap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := gen.ChainQuery(rng, 4, 30, 3) // dense joins: values in [1,3]
	tr := buildTreeFor(t, q)
	f, err := BuildEnc(cloneRels(q.Relations), tr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.EvaluateFlat()
	if err != nil {
		t.Fatal(err)
	}
	got := f.Relation("got").Project(want.Schema)
	if !got.Equal(want) {
		t.Fatal("chain query result wrong")
	}
	flat := len(want.Tuples) * len(want.Schema)
	if want.Cardinality() > 0 && f.Size() >= flat {
		t.Fatalf("factorised size %d >= flat size %d", f.Size(), flat)
	}
}

// TestPathConstraintViolationRejected: a tree separating one relation's
// attributes across branches must be rejected.
func TestPathConstraintViolationRejected(t *testing.T) {
	r := relation.New("R", relation.Schema{"A", "B"})
	r.Append(1, 2)
	root := ftree.NewNode("C")
	root.Add(ftree.NewNode("A"), ftree.NewNode("B"))
	tr := ftree.New([]*ftree.Node{root}, []relation.AttrSet{
		relation.NewAttrSet("A", "B"), relation.NewAttrSet("C")})
	s := relation.New("S", relation.Schema{"C"})
	s.Append(7)
	if _, err := BuildEnc([]*relation.Relation{r, s}, tr); err == nil {
		t.Fatal("path constraint violation accepted")
	}
}

func TestMissingAttributeRejected(t *testing.T) {
	r := relation.New("R", relation.Schema{"A", "Z"})
	r.Append(1, 2)
	tr := ftree.New([]*ftree.Node{ftree.NewNode("A")},
		[]relation.AttrSet{relation.NewAttrSet("A", "Z")})
	if _, err := BuildEnc([]*relation.Relation{r}, tr); err == nil {
		t.Fatal("missing attribute accepted")
	}
}

func TestEmptyJoinResult(t *testing.T) {
	r := relation.New("R", relation.Schema{"A"})
	r.Append(1)
	s := relation.New("S", relation.Schema{"B"})
	s.Append(2)
	// Join A = B with disjoint values: empty.
	root := ftree.NewNode("A", "B")
	tr := ftree.New([]*ftree.Node{root}, []relation.AttrSet{
		relation.NewAttrSet("A"), relation.NewAttrSet("B")})
	f, err := BuildEnc([]*relation.Relation{r, s}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !f.IsEmpty() || f.Count() != 0 {
		t.Fatal("disjoint join should be empty")
	}
}

// TestWithinRelationEquality: two attributes of the same relation in one
// class (selection A = B evaluated at build time).
func TestWithinRelationEquality(t *testing.T) {
	r := relation.New("R", relation.Schema{"A", "B", "C"})
	r.Append(1, 1, 5)
	r.Append(1, 2, 6)
	r.Append(3, 3, 7)
	root := ftree.NewNode("A", "B").Add(ftree.NewNode("C"))
	tr := ftree.New([]*ftree.Node{root},
		[]relation.AttrSet{relation.NewAttrSet("A", "B", "C")})
	f, err := BuildEnc([]*relation.Relation{r}, tr)
	if err != nil {
		t.Fatal(err)
	}
	want := r.Select(func(tp relation.Tuple) bool { return tp[0] == tp[1] })
	got := f.Relation("got").Project(want.Schema)
	if !got.Equal(want) {
		t.Fatalf("within-relation equality wrong:\n%s\nwant:\n%s", got, want)
	}
}

func cloneRels(rels []*relation.Relation) []*relation.Relation {
	out := make([]*relation.Relation, len(rels))
	for i, r := range rels {
		out[i] = r.Clone()
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestBuildEncEmpty: a merged class of disjoint relations is an empty join.
func TestBuildEncEmpty(t *testing.T) {
	r := relation.New("R", relation.Schema{"A"})
	r.Append(1)
	s := relation.New("S", relation.Schema{"B"})
	s.Append(2)
	root := ftree.NewNode("A", "B")
	tr := ftree.New([]*ftree.Node{root}, []relation.AttrSet{
		relation.NewAttrSet("A"), relation.NewAttrSet("B")})
	e, err := BuildEnc([]*relation.Relation{r, s}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !e.IsEmpty() || e.Count() != 0 {
		t.Fatal("disjoint encoded join should be empty")
	}
}

// TestSortIndex: the exported sort index matches the order SortFor imposes.
func TestSortIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		q, err := gen.RandomQuery(rng, 1+rng.Intn(3), 2+rng.Intn(4), 5+rng.Intn(40), rng.Intn(2), gen.Uniform, 6)
		if err != nil {
			t.Fatal(err)
		}
		tr, _, err := opt.OptimalFTree(q.Classes(), q.Schemas(), opt.TreeSearchOptions{})
		if err != nil {
			continue
		}
		rels := cloneRels(q.Relations)
		if err := SortFor(rels, tr); err != nil {
			t.Fatal(err)
		}
		for _, r := range rels {
			idx, err := SortIndex(r, tr)
			if err != nil {
				t.Fatal(err)
			}
			if len(idx) != len(r.Schema) {
				t.Fatalf("index %v does not cover schema %v", idx, r.Schema)
			}
			for k := 1; k < len(r.Tuples); k++ {
				ta, tb := r.Tuples[k-1], r.Tuples[k]
				cmp := 0
				for _, c := range idx {
					if ta[c] != tb[c] {
						if ta[c] > tb[c] {
							cmp = 1
						} else {
							cmp = -1
						}
						break
					}
				}
				if cmp > 0 {
					t.Fatalf("relation %s not sorted by its SortIndex %v", r.Name, idx)
				}
			}
		}
	}
}
