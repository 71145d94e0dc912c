package frep

import (
	"math/rand"
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
		k := pkey(key)
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

// Property: every aggregate over a random f-rep equals the same aggregate
// folded over the enumeration of its flattening, for every group-by subset
// — including the empty subset (global aggregates) and empty
// representations (quickRel may yield zero tuples).
func TestQuickAggregateMatchesFold(t *testing.T) {
	attrs := []relation.Attribute{"A", "B", "C"}
	specs := []AggSpec{
		{Fn: AggCount},
		{Fn: AggSum, Attr: "A"},
		{Fn: AggMin, Attr: "B"},
		{Fn: AggMax, Attr: "C"},
		{Fn: AggCountDistinct, Attr: "B"},
	}
	f := func(seed int64, mask uint8) bool {
		r := quickRel(seed)
		fr, err := fromRelation(quickTree(seed), r)
		if err != nil {
			return false
		}
		groupBy := groupSubset(attrs, int(mask)%8)
		got, err := fr.Aggregate(groupBy, specs)
		if err != nil {
			return false
		}
		return rowsEqual(got, foldAgg(fr, groupBy, specs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: the same, over a forest-shaped representation (a true product
// of two independently factorised relations), exercising the
// count-weighting recurrence across roots.
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
		for i := 0; i < rng.Intn(8); i++ {
			left.Append(relation.Value(rng.Intn(3)), relation.Value(rng.Intn(3)))
		}
		left.Dedup()
		right := relation.New("R", relation.Schema{"C", "D"})
		for i := 0; i < rng.Intn(8); i++ {
			right.Append(relation.Value(rng.Intn(3)), relation.Value(rng.Intn(3)))
		}
		right.Dedup()
		// The product relation over the forest {A->B} | {C->D}.
		prod := relation.New("P", relation.Schema{"A", "B", "C", "D"})
		for _, lt := range left.Tuples {
			for _, rt := range right.Tuples {
				prod.Append(lt[0], lt[1], rt[0], rt[1])
			}
		}
		tr := ftree.New(
			[]*ftree.Node{ftree.NewNode("A").Add(ftree.NewNode("B")), ftree.NewNode("C").Add(ftree.NewNode("D"))},
			[]relation.AttrSet{relation.NewAttrSet("A", "B"), relation.NewAttrSet("C", "D")})
		if prod.Cardinality() == 0 {
			// Empty product: FromRelation yields the empty representation.
			fr, err := fromRelation(tr, prod)
			if err != nil {
				return false
			}
			rows, err := fr.Aggregate(nil, specs)
			return err == nil && len(rows) == 0
		}
		fr, err := fromRelation(tr, prod)
		if err != nil {
			return false
		}
		groupBy := groupSubset(attrs, int(mask)%16)
		got, err := fr.Aggregate(groupBy, specs)
		if err != nil {
			return false
		}
		return rowsEqual(got, foldAgg(fr, groupBy, specs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
