package frep

import (
	"math"
	"testing"

	"repro/internal/ftree"
	"repro/internal/relation"
)

// pathTree builds the path A1 -> A2 -> ... with a single dependency set
// covering all attributes (one relation).
func pathTree(attrs ...relation.Attribute) *ftree.T {
	var root, cur *ftree.Node
	for _, a := range attrs {
		n := ftree.NewNode(a)
		if root == nil {
			root = n
		} else {
			cur.Add(n)
		}
		cur = n
	}
	return ftree.New([]*ftree.Node{root}, []relation.AttrSet{relation.NewAttrSet(attrs...)})
}

func mustFromRelation(t *testing.T, tr *ftree.T, r *relation.Relation) *Enc {
	t.Helper()
	fr, err := fromRelation(tr, r)
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

func TestAggregateGrouped(t *testing.T) {
	r := relation.New("R", relation.Schema{"A", "B", "C"})
	r.Append(1, 1, 1)
	r.Append(1, 2, 1)
	r.Append(1, 2, 3)
	r.Append(2, 1, 5)
	fr := mustFromRelation(t, pathTree("A", "B", "C"), r)

	specs := []AggSpec{
		{Fn: AggCount},
		{Fn: AggSum, Attr: "C"},
		{Fn: AggMin, Attr: "C"},
		{Fn: AggMax, Attr: "C"},
		{Fn: AggCountDistinct, Attr: "B"},
	}
	rows, err := fr.Aggregate([]relation.Attribute{"A"}, specs)
	if err != nil {
		t.Fatal(err)
	}
	want := []AggRow{
		{Key: []relation.Value{1}, Vals: []int64{3, 5, 1, 3, 2}},
		{Key: []relation.Value{2}, Vals: []int64{1, 5, 5, 5, 1}},
	}
	checkRows(t, rows, want)
}

func TestAggregateGlobal(t *testing.T) {
	r := relation.New("R", relation.Schema{"A", "B", "C"})
	r.Append(1, 1, 1)
	r.Append(1, 2, 1)
	r.Append(1, 2, 3)
	r.Append(2, 1, 5)
	fr := mustFromRelation(t, pathTree("A", "B", "C"), r)

	rows, err := fr.Aggregate(nil, []AggSpec{
		{Fn: AggCount},
		{Fn: AggSum, Attr: "C"},
		{Fn: AggMin, Attr: "C"},
		{Fn: AggMax, Attr: "C"},
		{Fn: AggCountDistinct, Attr: "B"},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, rows, []AggRow{{Key: []relation.Value{}, Vals: []int64{4, 10, 1, 5, 2}}})
}

// TestAggregateProduct exercises the count-weighting recurrence across a
// true product: R = {1,2} × {10,20} factorises over a two-root forest.
func TestAggregateProduct(t *testing.T) {
	r := relation.New("R", relation.Schema{"A", "B"})
	for _, a := range []int{1, 2} {
		for _, b := range []int{10, 20} {
			r.Append(relation.Value(a), relation.Value(b))
		}
	}
	tr := ftree.New(
		[]*ftree.Node{ftree.NewNode("A"), ftree.NewNode("B")},
		[]relation.AttrSet{relation.NewAttrSet("A"), relation.NewAttrSet("B")})
	fr := mustFromRelation(t, tr, r)

	rows, err := fr.Aggregate(nil, []AggSpec{{Fn: AggCount}, {Fn: AggSum, Attr: "B"}})
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, rows, []AggRow{{Key: []relation.Value{}, Vals: []int64{4, 60}}})

	rows, err = fr.Aggregate([]relation.Attribute{"A"}, []AggSpec{
		{Fn: AggCount}, {Fn: AggSum, Attr: "B"}, {Fn: AggMax, Attr: "B"}})
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, rows, []AggRow{
		{Key: []relation.Value{1}, Vals: []int64{2, 30, 20}},
		{Key: []relation.Value{2}, Vals: []int64{2, 30, 20}},
	})
}

func TestAggregateEmpty(t *testing.T) {
	fr := NewEmptyEnc(pathTree("A", "B", "C"))
	rows, err := fr.Aggregate([]relation.Attribute{"A"}, []AggSpec{{Fn: AggCount}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("empty rep: want 0 rows, got %v", rows)
	}
	rows, err = fr.Aggregate(nil, []AggSpec{{Fn: AggCount}, {Fn: AggSum, Attr: "B"}})
	if err != nil || len(rows) != 0 {
		t.Fatalf("empty rep global: want 0 rows, got %v (err %v)", rows, err)
	}
}

func TestAggregateErrors(t *testing.T) {
	r := relation.New("R", relation.Schema{"A", "B"})
	r.Append(1, 2)
	fr := mustFromRelation(t, pathTree("A", "B"), r)
	if _, err := fr.Aggregate([]relation.Attribute{"Z"}, []AggSpec{{Fn: AggCount}}); err == nil {
		t.Fatal("unknown group attribute: want error")
	}
	if _, err := fr.Aggregate(nil, []AggSpec{{Fn: AggSum, Attr: "Z"}}); err == nil {
		t.Fatal("unknown aggregate attribute: want error")
	}
	if _, err := fr.Aggregate([]relation.Attribute{"A", "A"}, []AggSpec{{Fn: AggCount}}); err == nil {
		t.Fatal("duplicate group attribute: want error")
	}
}

// hugeRep builds a representation of 2^64 tuples — four independent roots
// with 2^16 values each — whose Count saturates at math.MaxInt64.
func hugeRep() *Enc {
	attrs := []relation.Attribute{"A", "B", "C", "D"}
	var roots []*ftree.Node
	var rels []relation.AttrSet
	for _, a := range attrs {
		roots = append(roots, ftree.NewNode(a))
		rels = append(rels, relation.NewAttrSet(a))
	}
	b := NewEncBuilder(ftree.New(roots, rels))
	for ri := range attrs {
		for i := 1; i <= 1<<16; i++ {
			b.Append(ri, relation.Value(i))
		}
		b.CloseUnion(ri)
	}
	return b.Finish()
}

// Regression: FlatSize must saturate like Count, not wrap. Before the fix,
// Count()*len(Schema()) overflowed to a negative number once Count hit
// math.MaxInt64.
func TestFlatSizeSaturates(t *testing.T) {
	fr := hugeRep()
	if got := fr.Count(); got != math.MaxInt64 {
		t.Fatalf("Count: want saturation at %d, got %d", math.MaxInt64, got)
	}
	if got := fr.FlatSize(); got != math.MaxInt64 {
		t.Fatalf("FlatSize: want saturation at %d, got %d", math.MaxInt64, got)
	}
	rows, err := fr.Aggregate(nil, []AggSpec{{Fn: AggCount}, {Fn: AggSum, Attr: "A"}})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Vals[0] != math.MaxInt64 {
		t.Fatalf("Aggregate count: want saturation, got %d", rows[0].Vals[0])
	}
	if rows[0].Vals[1] != math.MaxInt64 {
		t.Fatalf("Aggregate sum: want saturation, got %d", rows[0].Vals[1])
	}
}

func TestSaturatingHelpers(t *testing.T) {
	cases := []struct{ a, b, add, mul int64 }{
		{2, 3, 5, 6},
		{-2, 3, 1, -6},
		{math.MaxInt64, 1, math.MaxInt64, math.MaxInt64},
		{math.MaxInt64, math.MaxInt64, math.MaxInt64, math.MaxInt64},
		{math.MinInt64, -1, math.MinInt64, math.MaxInt64}, // both saturate
		{math.MinInt64, 1, math.MinInt64 + 1, math.MinInt64},
		{math.MinInt64, math.MinInt64, math.MinInt64, math.MaxInt64},
		{math.MaxInt64, math.MinInt64, -1, math.MinInt64},
		{0, math.MinInt64, math.MinInt64, 0},
	}
	for _, c := range cases {
		if got := satAddI(c.a, c.b); got != c.add {
			t.Errorf("satAddI(%d,%d) = %d, want %d", c.a, c.b, got, c.add)
		}
		if got := satMulI(c.a, c.b); got != c.mul {
			t.Errorf("satMulI(%d,%d) = %d, want %d", c.a, c.b, got, c.mul)
		}
	}
}

func checkRows(t *testing.T, got, want []AggRow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d: %v vs %v", len(got), len(want), got, want)
	}
	for i := range want {
		if len(got[i].Key) != len(want[i].Key) || len(got[i].Vals) != len(want[i].Vals) {
			t.Fatalf("row %d shape mismatch: got %v, want %v", i, got[i], want[i])
		}
		for j := range want[i].Key {
			if got[i].Key[j] != want[i].Key[j] {
				t.Fatalf("row %d key: got %v, want %v", i, got[i].Key, want[i].Key)
			}
		}
		for j := range want[i].Vals {
			if got[i].Vals[j] != want[i].Vals[j] {
				t.Fatalf("row %d (%s): got %v, want %v", i, "vals", got[i].Vals, want[i].Vals)
			}
		}
	}
}
