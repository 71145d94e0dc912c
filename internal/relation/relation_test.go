package relation

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSchemaIndexContains(t *testing.T) {
	s := Schema{"A", "B", "C"}
	if s.Index("B") != 1 {
		t.Fatalf("Index(B) = %d, want 1", s.Index("B"))
	}
	if s.Index("Z") != -1 {
		t.Fatalf("Index(Z) = %d, want -1", s.Index("Z"))
	}
	if !s.Contains("A") || s.Contains("Z") {
		t.Fatal("Contains misbehaves")
	}
}

func TestSchemaValidate(t *testing.T) {
	if err := (Schema{"A", "B"}).Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	if err := (Schema{"A", "A"}).Validate(); err == nil {
		t.Fatal("duplicate attribute accepted")
	}
	if err := (Schema{""}).Validate(); err == nil {
		t.Fatal("empty attribute accepted")
	}
}

func TestSchemaEqualClone(t *testing.T) {
	s := Schema{"A", "B"}
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone not equal")
	}
	c[0] = "Z"
	if s.Equal(c) {
		t.Fatal("mutating clone affected equality")
	}
	if s.Equal(Schema{"A"}) {
		t.Fatal("different length schemas equal")
	}
}

func TestAttrSet(t *testing.T) {
	s := NewAttrSet("A", "B")
	o := NewAttrSet("B", "C")
	if !s.Intersects(o) {
		t.Fatal("intersecting sets reported disjoint")
	}
	if s.Intersects(NewAttrSet("X")) {
		t.Fatal("disjoint sets reported intersecting")
	}
	u := s.Union(o)
	for _, a := range []Attribute{"A", "B", "C"} {
		if !u.Has(a) {
			t.Fatalf("union missing %s", a)
		}
	}
	got := u.Sorted()
	want := []Attribute{"A", "B", "C"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sorted() = %v, want %v", got, want)
		}
	}
	c := s.Clone()
	c.Add("Z")
	if s.Has("Z") {
		t.Fatal("clone shares storage")
	}
}

func TestDictRoundTrip(t *testing.T) {
	d := NewDict()
	a := d.Encode("milk")
	b := d.Encode("cheese")
	if a == b {
		t.Fatal("distinct strings share id")
	}
	if d.Encode("milk") != a {
		t.Fatal("re-encoding changed id")
	}
	if d.Decode(a) != "milk" || d.Decode(b) != "cheese" {
		t.Fatal("decode mismatch")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if d.Decode(99) != "99" {
		t.Fatalf("unknown value decodes to %q", d.Decode(99))
	}
}

func TestTupleCompare(t *testing.T) {
	cases := []struct {
		a, b Tuple
		want int
	}{
		{Tuple{1, 2}, Tuple{1, 2}, 0},
		{Tuple{1, 2}, Tuple{1, 3}, -1},
		{Tuple{2, 0}, Tuple{1, 9}, 1},
		{Tuple{1}, Tuple{1, 0}, -1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func mkRel(t *testing.T, name string, schema Schema, rows ...[]Value) *Relation {
	t.Helper()
	r := New(name, schema)
	for _, row := range rows {
		r.Append(row...)
	}
	return r
}

func TestSortByAndDedup(t *testing.T) {
	r := mkRel(t, "R", Schema{"A", "B"},
		[]Value{2, 1}, []Value{1, 2}, []Value{1, 1}, []Value{1, 2})
	r.SortBy([]Attribute{"B", "A"})
	want := []Tuple{{1, 1}, {2, 1}, {1, 2}, {1, 2}}
	for i := range want {
		if r.Tuples[i].Compare(want[i]) != 0 {
			t.Fatalf("SortBy order wrong at %d: %v", i, r.Tuples)
		}
	}
	r.Dedup()
	if len(r.Tuples) != 3 {
		t.Fatalf("Dedup left %d tuples, want 3", len(r.Tuples))
	}
}

func TestProjectSelectProduct(t *testing.T) {
	r := mkRel(t, "R", Schema{"A", "B"},
		[]Value{1, 1}, []Value{1, 2}, []Value{2, 2})
	p := r.Project([]Attribute{"A"})
	if p.Cardinality() != 2 {
		t.Fatalf("projection cardinality = %d, want 2", p.Cardinality())
	}
	s := r.Select(func(tp Tuple) bool { return tp[0] == 1 })
	if s.Cardinality() != 2 {
		t.Fatalf("selection cardinality = %d, want 2", s.Cardinality())
	}
	o := mkRel(t, "S", Schema{"C"}, []Value{7}, []Value{8})
	pr := r.Product(o)
	if pr.Cardinality() != 6 {
		t.Fatalf("product cardinality = %d, want 6", pr.Cardinality())
	}
	if len(pr.Schema) != 3 {
		t.Fatalf("product schema = %v", pr.Schema)
	}
}

func TestProductDisjointSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("product over overlapping schemas did not panic")
		}
	}()
	r := mkRel(t, "R", Schema{"A"}, []Value{1})
	r.Product(mkRel(t, "S", Schema{"A"}, []Value{1}))
}

func TestEqualIgnoresOrderAndDuplicates(t *testing.T) {
	r := mkRel(t, "R", Schema{"A", "B"}, []Value{1, 2}, []Value{3, 4})
	s := mkRel(t, "S", Schema{"A", "B"}, []Value{3, 4}, []Value{1, 2}, []Value{1, 2})
	if !r.Equal(s) {
		t.Fatal("set-equal relations reported different")
	}
	u := mkRel(t, "U", Schema{"A", "B"}, []Value{1, 2})
	if r.Equal(u) {
		t.Fatal("different relations reported equal")
	}
	v := mkRel(t, "V", Schema{"A", "C"}, []Value{1, 2}, []Value{3, 4})
	if r.Equal(v) {
		t.Fatal("different schemas reported equal")
	}
}

// Property: Dedup yields a sorted duplicate-free tuple list representing the
// same set.
func TestDedupProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := New("R", Schema{"A", "B"})
		n := rng.Intn(50)
		for i := 0; i < n; i++ {
			r.Append(Value(rng.Intn(5)), Value(rng.Intn(5)))
		}
		orig := make(map[[2]Value]bool)
		for _, tp := range r.Tuples {
			orig[[2]Value{tp[0], tp[1]}] = true
		}
		r.Dedup()
		if len(r.Tuples) != len(orig) {
			return false
		}
		if !sort.SliceIsSorted(r.Tuples, func(i, j int) bool {
			return r.Tuples[i].Compare(r.Tuples[j]) < 0
		}) {
			return false
		}
		for _, tp := range r.Tuples {
			if !orig[[2]Value{tp[0], tp[1]}] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: projection then re-projection onto the same attributes is
// idempotent.
func TestProjectIdempotentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := New("R", Schema{"A", "B", "C"})
		for i := 0; i < rng.Intn(30); i++ {
			r.Append(Value(rng.Intn(4)), Value(rng.Intn(4)), Value(rng.Intn(4)))
		}
		p1 := r.Project([]Attribute{"B", "A"})
		p2 := p1.Project([]Attribute{"B", "A"})
		return p1.Equal(p2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
