package fdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// unionAllDB holds R(a,b) = {(1,1),(1,2),(2,2)} and S(c,d) =
// {(1,1),(2,1),(2,2)}, and returns x = R × S and y = the same product with
// R.a = 1.
func unionAllDB(t *testing.T) (db *DB, x, y *Result) {
	t.Helper()
	db = New()
	db.MustCreate("R", "a", "b")
	db.MustCreate("S", "c", "d")
	for _, r := range [][2]int{{1, 1}, {1, 2}, {2, 2}} {
		db.MustInsert("R", r[0], r[1])
	}
	for _, s := range [][2]int{{1, 1}, {2, 1}, {2, 2}} {
		db.MustInsert("S", s[0], s[1])
	}
	x = mustQuery(t, func() (*Result, error) { return db.Query(From("R", "S")) })
	y = mustQuery(t, func() (*Result, error) { return db.Query(From("R", "S"), Cmp("R.a", EQ, 1)) })
	return db, x, y
}

// validOperands fails unless every encoding res holds satisfies the order
// and reduction invariants.
func validOperands(t *testing.T, res *Result) {
	t.Helper()
	for i, e := range res.parts {
		if err := e.Validate(); err != nil {
			t.Fatalf("operand %d does not validate: %v", i, err)
		}
	}
}

// TestUnionAllMultiplicities: a Where over a UnionAll result refines each
// operand, so every tuple keeps the multiplicity its operands give it,
// whatever f-plan the condition needs (an absorb, a swap, a projection);
// Distinct folds the bag into the set union.
func TestUnionAllMultiplicities(t *testing.T) {
	_, x, y := unionAllDB(t)
	bag, err := x.UnionAll(y)
	if err != nil {
		t.Fatal(err)
	}
	if bag.Count() != 15 || bag.Enc() != nil {
		t.Fatalf("x ⊎ y: Count %d (want 15), Enc %v (want nil)", bag.Count(), bag.Enc())
	}
	validOperands(t, bag)
	for _, c := range []struct {
		name   string
		clause Clause
		want   int64
	}{
		{"R.a=S.d", Eq("R.a", "S.d"), 9},
		{"project R.b, S.d", Project("R.b", "S.d"), 8},
		{"R.b=S.d", Eq("R.b", "S.d"), 7},
	} {
		got, err := bag.Where(c.clause)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		validOperands(t, got)
		sum := mustQuery(t, func() (*Result, error) { return x.Where(c.clause) }).Count() +
			mustQuery(t, func() (*Result, error) { return y.Where(c.clause) }).Count()
		if got.Count() != c.want || sum != c.want || int64(len(got.Rows(0))) != c.want {
			t.Fatalf("%s: Count %d, %d rows, operands give %d, want %d", c.name, got.Count(), len(got.Rows(0)), sum, c.want)
		}
	}
	dist, err := bag.Where(Distinct())
	if err != nil {
		t.Fatal(err)
	}
	validOperands(t, dist)
	union := mustQuery(t, func() (*Result, error) { return x.Union(y) })
	if dist.Count() != 9 || union.Count() != 9 || !reflect.DeepEqual(dist.Rows(0), union.Rows(0)) {
		t.Fatalf("Distinct: %d rows %v, Union %d rows %v, want 9", dist.Count(), dist.Rows(0), union.Count(), union.Rows(0))
	}

	// Join distributes over the bag: (x ⊎ y) × T is x × T ⊎ y × T.
	other := mustQuery(t, func() (*Result, error) { return x.Where(Project("R.a")) })
	db2 := bag.db
	db2.MustCreate("T", "e")
	db2.MustInsert("T", 7)
	db2.MustInsert("T", 8)
	tr := mustQuery(t, func() (*Result, error) { return db2.Query(From("T")) })
	joined, err := bag.Join(tr, Eq("R.a", "S.d"))
	if err != nil {
		t.Fatal(err)
	}
	validOperands(t, joined)
	if joined.Count() != 18 || len(joined.parts) == 1 {
		t.Fatalf("(x ⊎ y) ⋈ T on R.a=S.d: Count %d (want 18), bag %v", joined.Count(), len(joined.parts) > 1)
	}
	if _, err := other.Join(bag); err == nil {
		t.Fatal("a Join over shared attributes succeeded")
	}
}

// unionAllLeg draws one leg: base with up to two random constant
// selections over attrs.
func unionAllLeg(rng *rand.Rand, base []Clause, attrs []string) []Clause {
	out := slices.Clone(base)
	ops := []CmpOp{EQ, NE, LT, LE, GT, GE}
	for i := rng.Intn(3); i > 0; i-- {
		out = append(out, Cmp(attrs[rng.Intn(len(attrs))], ops[rng.Intn(len(ops))], 1+rng.Intn(3)))
	}
	return out
}

// TestUnionAllMatchesFlatReference: over random data and random selection
// legs of a branching tree, a forest and a path, a UnionAll of two or three
// legs (one of them a bag) enumerates exactly the legs' rows, duplicates
// kept; Distinct and Union give the legs' set union; every
// operand is a valid set encoding.
func TestUnionAllMatchesFlatReference(t *testing.T) {
	shapes := []struct {
		name  string
		base  []Clause
		attrs []string
	}{
		{"branching", []Clause{From("R", "S"), Eq("R.a", "S.a")}, []string{"R.a", "R.b", "S.c"}},
		{"forest", []Clause{From("R", "T")}, []string{"R.a", "R.b", "T.e"}},
		{"path", []Clause{From("R")}, []string{"R.a", "R.b"}},
	}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := New()
		db.MustCreate("R", "a", "b")
		db.MustCreate("S", "a", "c")
		db.MustCreate("T", "e")
		for i := 0; i < 3+rng.Intn(8); i++ {
			db.MustInsert("R", 1+rng.Intn(3), 1+rng.Intn(3))
			db.MustInsert("S", 1+rng.Intn(3), 1+rng.Intn(3))
			db.MustInsert("T", 1+rng.Intn(3))
		}
		for _, sh := range shapes {
			var legs []*Result
			var want []string
			for i := 2 + rng.Intn(2); i > 0; i-- {
				leg := mustQuery(t, func() (*Result, error) { return db.Query(unionAllLeg(rng, sh.base, sh.attrs)...) })
				legs = append(legs, leg)
				want = append(want, sortedRows(t, leg)...)
			}
			slices.Sort(want)
			bag := legs[0]
			for _, leg := range legs[1:] {
				var err error
				if bag, err = bag.UnionAll(leg); err != nil {
					t.Fatal(err)
				}
			}
			where := fmt.Sprintf("seed %d %s", seed, sh.name)
			if len(bag.parts) != len(legs) {
				t.Fatalf("%s: %d operands for %d legs", where, len(bag.parts), len(legs))
			}
			validOperands(t, bag)
			if got := sortedRows(t, bag); bag.Count() != int64(len(want)) || !slices.Equal(got, want) {
				t.Fatalf("%s: UnionAll (Count %d) enumerates\n%v\nwant\n%v", where, bag.Count(), got, want)
			}
			set := slices.Compact(slices.Clone(want))
			dist := mustQuery(t, func() (*Result, error) { return bag.Where(Distinct()) })
			union := legs[0]
			for _, leg := range legs[1:] {
				union = mustQuery(t, func() (*Result, error) { return union.Union(leg) })
			}
			for name, res := range map[string]*Result{"Distinct": dist, "Union": union} {
				validOperands(t, res)
				if got := sortedRows(t, res); res.Count() != int64(len(set)) || !slices.Equal(got, set) {
					t.Fatalf("%s: %s (Count %d) enumerates\n%v\nwant\n%v", where, name, res.Count(), got, set)
				}
			}
		}
	}
}

// TestUnionAllEdges: an empty operand adds nothing; a result united with
// itself doubles every count and folds back to the same encoding; Distinct
// on a set result is the identity; a bag renders its operands joined by ⊎
// and reads operands in another column order in its first's; operands over
// different attributes are refused.
func TestUnionAllEdges(t *testing.T) {
	_, x, y := unionAllDB(t)
	none := mustQuery(t, func() (*Result, error) { return x.Where(Cmp("R.a", EQ, 9)) })
	withNone := mustQuery(t, func() (*Result, error) { return x.UnionAll(none) })
	if withNone.Count() != x.Count() || withNone.Size() != x.Size() || withNone.Empty() {
		t.Fatalf("x ⊎ ∅: Count %d Size %d Empty %v, want x's %d %d false", withNone.Count(), withNone.Size(), withNone.Empty(), x.Count(), x.Size())
	}
	if empties := mustQuery(t, func() (*Result, error) { return none.UnionAll(none) }); !empties.Empty() || empties.Count() != 0 || len(empties.Rows(0)) != 0 {
		t.Fatal("∅ ⊎ ∅ is not empty")
	}

	twice := mustQuery(t, func() (*Result, error) { return x.UnionAll(x) })
	if twice.Count() != 2*x.Count() || twice.Size() != 2*x.Size() || twice.FlatSize() != 2*x.FlatSize() {
		t.Fatalf("x ⊎ x: Count %d Size %d FlatSize %d, want twice %d %d %d",
			twice.Count(), twice.Size(), twice.FlatSize(), x.Count(), x.Size(), x.FlatSize())
	}
	if d := mustQuery(t, func() (*Result, error) { return twice.Where(Distinct()) }); d.Enc() != x.Enc() {
		t.Fatal("Distinct of x ⊎ x is not x's encoding")
	}
	if d := mustQuery(t, func() (*Result, error) { return x.Where(Distinct()) }); d.Enc() != x.Enc() {
		t.Fatal("Distinct changed a set result's encoding")
	}

	if s, f := twice.String(), twice.FTree(); s != x.String()+" ⊎ "+x.String() || f != x.FTree()+" ⊎ "+x.FTree() {
		t.Fatalf("x ⊎ x renders %q and tree %q", s, f)
	}
	if !reflect.DeepEqual(twice.Schema(), x.Schema()) {
		t.Fatalf("bag schema %v, first operand's %v", twice.Schema(), x.Schema())
	}

	// Operands in different column orders: the bag reads in the first's.
	eq := mustQuery(t, func() (*Result, error) { return x.Where(Eq("R.a", "S.d")) })
	mixed := mustQuery(t, func() (*Result, error) { return eq.UnionAll(y) })
	want := slices.Sorted(slices.Values(append(sortedRows(t, eq), sortedRows(t, y)...)))
	if reflect.DeepEqual(eq.Schema(), y.Schema()) || !reflect.DeepEqual(mixed.Schema(), eq.Schema()) || !slices.Equal(sortedRows(t, mixed), want) {
		t.Fatalf("bag over %v and %v: schema %v, rows %v, want %v", eq.Schema(), y.Schema(), mixed.Schema(), sortedRows(t, mixed), want)
	}

	proj := mustQuery(t, func() (*Result, error) { return y.Where(Project("R.a")) })
	if _, err := x.UnionAll(proj); err == nil || !strings.Contains(err.Error(), "schemas differ") {
		t.Fatalf("UnionAll over different attributes: err = %v", err)
	}
	if _, err := twice.UnionAll(proj); err == nil || !strings.Contains(err.Error(), "schemas differ") {
		t.Fatalf("UnionAll of a bag over different attributes: err = %v", err)
	}
	if _, err := twice.Where(Eq("R.a", "T.e")); err == nil {
		t.Fatal("Where over a bag named a missing attribute and succeeded")
	}
}

// TestUnionAllConcurrentRetrieval: goroutines share one bag's operands as
// they share a result's encoding — retrieving, counting and refining it at
// once agrees with one goroutine doing it alone.
func TestUnionAllConcurrentRetrieval(t *testing.T) {
	_, x, y := unionAllDB(t)
	bag := mustQuery(t, func() (*Result, error) { return x.UnionAll(y) })
	want := fmt.Sprint(mustQuery(t, func() (*Result, error) { return bag.Where(OrderBy(Desc("S.d")), Limit(7)) }).Rows(0))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := bag.Where(OrderBy(Desc("S.d")), Limit(7))
			if err != nil {
				errs <- err
				return
			}
			if got := fmt.Sprint(res.Rows(0)); got != want || bag.Count() != 15 || len(bag.Rows(0)) != 15 {
				errs <- fmt.Errorf("concurrent retrieval %s, want %s", got, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
