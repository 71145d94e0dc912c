package frep

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/ftree"
	"repro/internal/relation"
)

// foldAgg is the reference implementation: enumerate the flat relation and
// fold every aggregate tuple by tuple.
func foldAgg(fr *Enc, groupBy []relation.Attribute, specs []AggSpec) []AggRow {
	schema := fr.Schema()
	pos := map[relation.Attribute]int{}
	for i, a := range schema {
		pos[a] = i
	}
	type state struct {
		key  []relation.Value
		cnt  int64
		sum  []int64
		m    []int64
		mSet []bool
		dist []map[relation.Value]struct{}
	}
	groups := map[string]*state{}
	fr.Enumerate(func(t relation.Tuple) bool {
		key := make([]relation.Value, len(groupBy))
		for i, a := range groupBy {
			key[i] = t[pos[a]]
		}
		k := fmt.Sprint(key)
		s, ok := groups[k]
		if !ok {
			s = &state{
				key: key, sum: make([]int64, len(specs)), m: make([]int64, len(specs)),
				mSet: make([]bool, len(specs)), dist: make([]map[relation.Value]struct{}, len(specs)),
			}
			groups[k] = s
		}
		s.cnt++
		for i, sp := range specs {
			if sp.Fn == AggCount {
				continue
			}
			v := t[pos[sp.Attr]]
			switch sp.Fn {
			case AggSum:
				s.sum[i] += int64(v)
			case AggMin:
				if !s.mSet[i] || int64(v) < s.m[i] {
					s.m[i], s.mSet[i] = int64(v), true
				}
			case AggMax:
				if !s.mSet[i] || int64(v) > s.m[i] {
					s.m[i], s.mSet[i] = int64(v), true
				}
			case AggCountDistinct:
				if s.dist[i] == nil {
					s.dist[i] = map[relation.Value]struct{}{}
				}
				s.dist[i][v] = struct{}{}
			}
		}
		return true
	})
	rows := make([]AggRow, 0, len(groups))
	for _, s := range groups {
		row := AggRow{Key: s.key, Vals: make([]int64, len(specs))}
		for i, sp := range specs {
			switch sp.Fn {
			case AggCount:
				row.Vals[i] = s.cnt
			case AggSum:
				row.Vals[i] = s.sum[i]
			case AggMin, AggMax:
				row.Vals[i] = s.m[i]
			case AggCountDistinct:
				row.Vals[i] = int64(len(s.dist[i]))
			}
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		for k := range rows[i].Key {
			if rows[i].Key[k] != rows[j].Key[k] {
				return rows[i].Key[k] < rows[j].Key[k]
			}
		}
		return false
	})
	return rows
}

func rowsEqual(a, b []AggRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Key) != len(b[i].Key) || len(a[i].Vals) != len(b[i].Vals) {
			return false
		}
		for j := range a[i].Key {
			if a[i].Key[j] != b[i].Key[j] {
				return false
			}
		}
		for j := range a[i].Vals {
			if a[i].Vals[j] != b[i].Vals[j] {
				return false
			}
		}
	}
	return true
}

// liftedOrder shuffles attrs with rng, the members of groupBy first: a
// chain in this order is lifted for groupBy, the layout fplan.Lift
// arranges and aggregation requires.
func liftedOrder(rng *rand.Rand, attrs, groupBy []relation.Attribute) []relation.Attribute {
	out := slices.Clone(attrs)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	g := relation.NewAttrSet(groupBy...)
	rank := func(a relation.Attribute) int {
		if g.Has(a) {
			return 0
		}
		return 1
	}
	slices.SortStableFunc(out, func(a, b relation.Attribute) int { return cmp.Compare(rank(a), rank(b)) })
	return out
}

// groupSubset derives a deterministic subset of attrs (possibly empty).
func groupSubset(attrs []relation.Attribute, mask int) []relation.Attribute {
	var out []relation.Attribute
	for i, a := range attrs {
		if mask&(1<<i) != 0 {
			out = append(out, a)
		}
	}
	return out
}

// aggRel derives a random relation over {A,B,C} from a seed, its values
// wide enough that a root union often splits among five workers.
func aggRel(seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := relation.New("R", relation.Schema{"A", "B", "C"})
	for i := 0; i < rng.Intn(48); i++ {
		r.Append(relation.Value(rng.Intn(12)), relation.Value(rng.Intn(12)), relation.Value(rng.Intn(12)))
	}
	r.Dedup()
	return r
}

// matchesFold reports whether fr aggregates to the enumerate-then-fold rows
// serially and with 2, 3 and 5 workers.
func matchesFold(fr *Enc, groupBy []relation.Attribute, specs []AggSpec) bool {
	want := foldAgg(fr, groupBy, specs)
	for _, p := range []int{1, 2, 3, 5} {
		got, err := fr.AggregateParallel(groupBy, specs, p)
		if err != nil || !rowsEqual(got, want) {
			return false
		}
	}
	return true
}

// branchEnc factorises π_{A,B} r ⋈ π_{A,C} r over the branching tree
// A → {B, C}, lifted for groupBy: a group subset that takes B or C but not
// A puts them above A, into a chain.
func branchEnc(rng *rand.Rand, r *relation.Relation, groupBy []relation.Attribute) (*Enc, error) {
	join := relation.New("J", relation.Schema{"A", "B", "C"})
	for _, x := range r.Tuples {
		for _, y := range r.Tuples {
			if x[0] == y[0] {
				join.Append(x[0], x[1], y[2])
			}
		}
	}
	root := chain("A")
	root.Add(ftree.NewNode("B"))
	root.Add(ftree.NewNode("C"))
	if len(groupBy) > 0 && !slices.Contains(groupBy, "A") {
		root = chain(liftedOrder(rng, join.Schema, groupBy)...)
	}
	return fromRelation(ftree.New([]*ftree.Node{root},
		[]relation.AttrSet{relation.NewAttrSet("A", "B"), relation.NewAttrSet("A", "C")}), join)
}

// Property: every aggregate over a random f-rep, lifted for the group-by
// attributes, equals the same aggregate folded over the enumeration of its
// flattening, for every group-by subset — including the empty subset
// (global aggregates) and empty representations (aggRel may yield zero
// tuples). Each draw checks a chain and the branching tree of branchEnc,
// whose specs sit on both branches: a sum weighs each value by its
// sibling's tuple counts, and minima, maxima and distinct counts reduce
// runs that sit beside another branch.
func TestQuickAggregateMatchesFold(t *testing.T) {
	attrs := []relation.Attribute{"A", "B", "C"}
	specs := []AggSpec{
		{Fn: AggCount},
		{Fn: AggSum, Attr: "A"},
		{Fn: AggMin, Attr: "B"},
		{Fn: AggMax, Attr: "C"},
		{Fn: AggCountDistinct, Attr: "B"},
	}
	branchSpecs := []AggSpec{
		{Fn: AggCount},
		{Fn: AggSum, Attr: "A"},
		{Fn: AggSum, Attr: "B"},
		{Fn: AggSum, Attr: "C"},
		{Fn: AggMin, Attr: "B"},
		{Fn: AggMax, Attr: "B"},
		{Fn: AggMax, Attr: "C"},
		{Fn: AggCountDistinct, Attr: "B"},
		{Fn: AggCountDistinct, Attr: "C"},
	}
	f := func(seed int64, mask uint8) bool {
		groupBy := groupSubset(attrs, int(mask)%8)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		order := liftedOrder(rng, attrs, groupBy)
		fr, err := fromRelation(pathTree(order...), aggRel(seed))
		if err != nil || !matchesFold(fr, groupBy, specs) {
			return false
		}
		br, err := branchEnc(rng, aggRel(seed), groupBy)
		return err == nil && matchesFold(br, groupBy, branchSpecs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: the same, over a forest-shaped representation (a true product
// of two independently factorised relations, each root's chain lifted),
// exercising the count-weighting recurrence across roots.
func TestQuickAggregateProductMatchesFold(t *testing.T) {
	attrs := []relation.Attribute{"A", "B", "C", "D"}
	specs := []AggSpec{
		{Fn: AggCount},
		{Fn: AggSum, Attr: "C"},
		{Fn: AggMin, Attr: "A"},
		{Fn: AggMax, Attr: "D"},
		{Fn: AggCountDistinct, Attr: "C"},
	}
	f := func(seed int64, mask uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		left := relation.New("L", relation.Schema{"A", "B"})
		for i := 0; i < rng.Intn(16); i++ {
			left.Append(relation.Value(rng.Intn(8)), relation.Value(rng.Intn(8)))
		}
		left.Dedup()
		right := relation.New("R", relation.Schema{"C", "D"})
		for i := 0; i < rng.Intn(16); i++ {
			right.Append(relation.Value(rng.Intn(8)), relation.Value(rng.Intn(8)))
		}
		right.Dedup()
		// The product relation over the forest {A,B} | {C,D}.
		prod := relation.New("P", relation.Schema{"A", "B", "C", "D"})
		for _, lt := range left.Tuples {
			for _, rt := range right.Tuples {
				prod.Append(lt[0], lt[1], rt[0], rt[1])
			}
		}
		groupBy := groupSubset(attrs, int(mask)%16)
		tr := ftree.New(
			[]*ftree.Node{chain(liftedOrder(rng, attrs[:2], groupBy)...), chain(liftedOrder(rng, attrs[2:], groupBy)...)},
			[]relation.AttrSet{relation.NewAttrSet("A", "B"), relation.NewAttrSet("C", "D")})
		fr, err := fromRelation(tr, prod)
		return err == nil && matchesFold(fr, groupBy, specs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
