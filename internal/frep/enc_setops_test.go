package frep

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/ftree"
	"repro/internal/relation"
)

// setOpRel builds a random relation over schema with values in [0, dom).
func setOpRel(rng *rand.Rand, schema relation.Schema, n, dom int) *relation.Relation {
	r := relation.New("R", schema)
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

// setOpEncOf factorises rel over a random path tree drawn from rng.
func setOpEncOf(t *testing.T, rng *rand.Rand, rel *relation.Relation) *Enc {
	t.Helper()
	attrs := append([]relation.Attribute(nil), rel.Schema...)
	rng.Shuffle(len(attrs), func(i, j int) { attrs[i], attrs[j] = attrs[j], attrs[i] })
	tr := randomPathTree(attrs, rng, []relation.AttrSet{relation.NewAttrSet(rel.Schema...)})
	e, err := fromRelation(tr, rel)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// refRows computes the flat reference of op over two set relations, as rows
// in the given attribute order, sorted.
func refRows(op setOp, a, b *relation.Relation, order relation.Schema) []relation.Tuple {
	key := func(t relation.Tuple) string {
		out := make([]byte, 0, 16)
		for _, v := range t {
			out = append(out, byte(v), ',')
		}
		return string(out)
	}
	pa, pb := a.Project(order), b.Project(order)
	inB := map[string]bool{}
	for _, t := range pb.Tuples {
		inB[key(t)] = true
	}
	var rows []relation.Tuple
	switch op {
	case opUnion:
		seen := map[string]bool{}
		for _, t := range append(append([]relation.Tuple{}, pa.Tuples...), pb.Tuples...) {
			if k := key(t); !seen[k] {
				seen[k] = true
				rows = append(rows, t)
			}
		}
	case opExcept:
		for _, t := range pa.Tuples {
			if !inB[key(t)] {
				rows = append(rows, t)
			}
		}
	case opIntersect:
		for _, t := range pa.Tuples {
			if inB[key(t)] {
				rows = append(rows, t)
			}
		}
	}
	cmp := TupleCompare(order, nil, nil)
	sort.SliceStable(rows, func(i, j int) bool { return cmp(rows[i], rows[j]) < 0 })
	return rows
}

// gotRows enumerates a set-operation result into the given attribute order,
// sorted.
func gotRows(e *Enc, order relation.Schema) []relation.Tuple {
	rows := rowsOf(e, order)
	cmp := TupleCompare(order, nil, nil)
	sort.SliceStable(rows, func(i, j int) bool { return cmp(rows[i], rows[j]) < 0 })
	return rows
}

// The core differential property: every operation over randomly factorised
// operands (same schema, independently shuffled trees — hitting the direct,
// reindex and rebuild alignment tiers) matches the flat reference.
func TestSetOpsMatchFlatReference(t *testing.T) {
	schema := relation.Schema{"A", "B", "C"}
	ops := []setOp{opUnion, opExcept, opIntersect}
	apply := map[setOp]func(a, b *Enc) (*Enc, error){
		opUnion:     SetUnionEnc,
		opExcept:    ExceptEnc,
		opIntersect: IntersectEnc,
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ra := setOpRel(rng, schema, rng.Intn(20), 3)
		rb := setOpRel(rng, schema, rng.Intn(20), 3)
		ea := setOpEncOf(t, rng, ra)
		eb := setOpEncOf(t, rng, rb)
		for _, op := range ops {
			out, err := apply[op](ea, eb)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, op, err)
			}
			want := refRows(op, ra, rb, schema)
			got := gotRows(out, schema)
			if !tuplesEqual(got, want) {
				t.Fatalf("seed %d %s: got %v want %v", seed, op, got, want)
			}
			if int64(len(refRows(op, ra, rb, schema))) != out.Count() {
				t.Fatalf("seed %d %s: Count %d, reference %d", seed, op, out.Count(), len(want))
			}
			if err := out.Validate(); err != nil {
				t.Fatalf("seed %d %s: result does not validate: %v", seed, op, err)
			}
		}
	}
}

// branchingPair builds two operands over the same branching tree (root A
// with children B and C) from per-value B- and C-fragments.
func branchingPair(t *testing.T, a *relation.Relation, b *relation.Relation) (*Enc, *Enc) {
	t.Helper()
	tree := func() *ftree.T {
		return ftree.New(
			[]*ftree.Node{ftree.NewNode("A").Add(ftree.NewNode("B"), ftree.NewNode("C"))},
			[]relation.AttrSet{relation.NewAttrSet("A", "B"), relation.NewAttrSet("A", "C")},
		)
	}
	fa, err := fromRelation(tree(), a)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := fromRelation(tree(), b)
	if err != nil {
		t.Fatal(err)
	}
	return fa, fb
}

// joinRel materialises the A-join of B- and C-fragments: for every a, the
// product of bs[a] and cs[a] — relations that factorise over the branching
// tree by construction.
func joinRel(bs, cs map[relation.Value][]relation.Value) *relation.Relation {
	r := relation.New("R", relation.Schema{"A", "B", "C"})
	for a, bvals := range bs {
		for _, b := range bvals {
			for _, c := range cs[a] {
				r.Append(a, b, c)
			}
		}
	}
	r.Sort()
	return r
}

// On a branching tree, a union whose collided entries differ in only one
// child merges structurally; differing in both children aborts to the
// rebuild. Both paths must produce the reference result.
func TestSetOpsBranchingDecomposability(t *testing.T) {
	// One differing child: same C fragments, different B fragments.
	ra := joinRel(map[relation.Value][]relation.Value{1: {1, 2}}, map[relation.Value][]relation.Value{1: {5, 6}})
	rb := joinRel(map[relation.Value][]relation.Value{1: {2, 3}}, map[relation.Value][]relation.Value{1: {5, 6}})
	ea, eb := branchingPair(t, ra, rb)
	if _, err := setOpStructural(opUnion, ea, eb); err != nil {
		t.Fatalf("one differing child should merge structurally: %v", err)
	}
	// Two differing children must abort the structural walk...
	rc := joinRel(map[relation.Value][]relation.Value{1: {2, 3}}, map[relation.Value][]relation.Value{1: {6, 7}})
	ec, _ := branchingPair(t, rc, rc)
	if _, err := setOpStructural(opUnion, ea, ec); !errors.Is(err, errNonDecomposable) {
		t.Fatalf("two differing children: want errNonDecomposable, got %v", err)
	}
	// ...while the public operator falls back to the rebuild and stays right.
	for _, tc := range []struct {
		op    setOp
		apply func(a, b *Enc) (*Enc, error)
		other *relation.Relation
		enc   *Enc
	}{
		{opUnion, SetUnionEnc, rb, eb},
		{opUnion, SetUnionEnc, rc, ec},
		{opExcept, ExceptEnc, rb, eb},
		{opExcept, ExceptEnc, rc, ec},
		{opIntersect, IntersectEnc, rc, ec},
	} {
		out, err := tc.apply(ea, tc.enc)
		if err != nil {
			t.Fatalf("%s: %v", tc.op, err)
		}
		schema := relation.Schema{"A", "B", "C"}
		if got, want := gotRows(out, schema), refRows(tc.op, ra, tc.other, schema); !tuplesEqual(got, want) {
			t.Fatalf("%s: got %v want %v", tc.op, got, want)
		}
	}
}

// Forest operands (multi-root products) follow the same decomposition rules
// as child products.
func TestSetOpsForest(t *testing.T) {
	build := func(seedA, seedB int64) (*Enc, *relation.Relation) {
		rngA := rand.New(rand.NewSource(seedA))
		relAB := setOpRel(rngA, relation.Schema{"A", "B"}, 1+rngA.Intn(6), 3)
		rngB := rand.New(rand.NewSource(seedB))
		relDE := setOpRel(rngB, relation.Schema{"D", "E"}, 1+rngB.Intn(6), 3)
		ta := randomPathTree([]relation.Attribute{"A", "B"}, rngA, []relation.AttrSet{relation.NewAttrSet("A", "B")})
		tb := randomPathTree([]relation.Attribute{"D", "E"}, rngB, []relation.AttrSet{relation.NewAttrSet("D", "E")})
		ea, err := fromRelation(ta, relAB)
		if err != nil {
			t.Fatal(err)
		}
		eb, err := fromRelation(tb, relDE)
		if err != nil {
			t.Fatal(err)
		}
		prod := &ftree.T{
			Roots:  append(append([]*ftree.Node{}, ea.Tree.Roots...), eb.Tree.Roots...),
			Rels:   append(append([]relation.AttrSet{}, ea.Tree.Rels...), eb.Tree.Rels...),
			Deps:   append(append([]relation.AttrSet{}, ea.Tree.Deps...), eb.Tree.Deps...),
			Hidden: relation.AttrSet{},
			Consts: relation.AttrSet{},
		}
		return ConcatEnc(prod, ea, eb), relAB.Product(relDE)
	}
	for seed := int64(1); seed < 40; seed++ {
		// Sharing seedB makes the second root's fragment identical — the
		// all-but-one-root case; fully distinct seeds force the rebuild.
		for _, pair := range [][2]int64{{seed, seed + 1000}, {seed, seed + 2000}} {
			ea, ra := build(pair[0], 7777)
			eb, rb := build(pair[1], 7777)
			ec, rc := build(pair[0], pair[1])
			order := relation.Schema{"A", "B", "D", "E"}
			for _, tc := range []struct {
				op    setOp
				apply func(a, b *Enc) (*Enc, error)
			}{
				{opUnion, SetUnionEnc}, {opExcept, ExceptEnc}, {opIntersect, IntersectEnc},
			} {
				out, err := tc.apply(ea, eb)
				if err != nil {
					t.Fatalf("seed %d %s aligned-forest: %v", seed, tc.op, err)
				}
				if got, want := gotRows(out, order), refRows(tc.op, ra, rb, order); !tuplesEqual(got, want) {
					t.Fatalf("seed %d %s aligned-forest: got %v want %v", seed, tc.op, got, want)
				}
				out, err = tc.apply(ea, ec)
				if err != nil {
					t.Fatalf("seed %d %s mixed-forest: %v", seed, tc.op, err)
				}
				if got, want := gotRows(out, order), refRows(tc.op, ra, rc, order); !tuplesEqual(got, want) {
					t.Fatalf("seed %d %s mixed-forest: got %v want %v", seed, tc.op, got, want)
				}
			}
		}
	}
}

// Edge cases: schema mismatch is a loud error; empty operands short-circuit
// with the right identities; an operand against itself is the identity of
// union and intersect and empties except.
func TestSetOpsEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ra := setOpRel(rng, relation.Schema{"A", "B", "C"}, 8, 3)
	ea := setOpEncOf(t, rng, ra)
	rd := setOpRel(rng, relation.Schema{"A", "B", "D"}, 8, 3)
	ed := setOpEncOf(t, rng, rd)
	if _, err := SetUnionEnc(ea, ed); err == nil {
		t.Fatal("schema mismatch: want error")
	}
	empty := NewEmptyEnc(ea.Tree.Clone())
	for _, tc := range []struct {
		name string
		out  func() (*Enc, error)
		want int64
	}{
		{"A∪∅", func() (*Enc, error) { return SetUnionEnc(ea, empty) }, ea.Count()},
		{"∅∪A", func() (*Enc, error) { return SetUnionEnc(empty, ea) }, ea.Count()},
		{"A−∅", func() (*Enc, error) { return ExceptEnc(ea, empty) }, ea.Count()},
		{"∅−A", func() (*Enc, error) { return ExceptEnc(empty, ea) }, 0},
		{"A∩∅", func() (*Enc, error) { return IntersectEnc(ea, empty) }, 0},
	} {
		out, err := tc.out()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if out.Count() != tc.want {
			t.Fatalf("%s: Count %d, want %d", tc.name, out.Count(), tc.want)
		}
	}
	union, err := SetUnionEnc(ea, ea)
	if err != nil {
		t.Fatal(err)
	}
	if union.Count() != ea.Count() {
		t.Fatalf("A∪A: Count %d, want %d", union.Count(), ea.Count())
	}
	sect, err := IntersectEnc(ea, ea)
	if err != nil {
		t.Fatal(err)
	}
	if sect.Count() != ea.Count() {
		t.Fatalf("A∩A: Count %d, want %d", sect.Count(), ea.Count())
	}
	diff, err := ExceptEnc(ea, ea)
	if err != nil {
		t.Fatal(err)
	}
	if !diff.IsEmpty() {
		t.Fatal("A−A should be empty")
	}
}
