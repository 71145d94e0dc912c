package frep

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/ftree"
	"repro/internal/relation"
)

// orderEnc builds a random encoded representation: a path-tree factorisation
// of a random relation over {A,B,C}, optionally extended to a two-root
// forest with an independent relation over {D,E} (the Cartesian-product
// shape ConcatEnc produces).
func orderEnc(t *testing.T, seed int64, forest bool) *Enc {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	relABC := relation.New("R", relation.Schema{"A", "B", "C"})
	for i := 0; i < 2+rng.Intn(24); i++ {
		relABC.Append(relation.Value(rng.Intn(4)), relation.Value(rng.Intn(4)), relation.Value(rng.Intn(4)))
	}
	relABC.Dedup()
	trA := randomPathTree([]relation.Attribute{"A", "B", "C"}, rng,
		[]relation.AttrSet{relation.NewAttrSet("A", "B", "C")})
	ea, err := fromRelation(trA, relABC)
	if err != nil {
		t.Fatal(err)
	}
	if !forest {
		return ea
	}
	relDE := relation.New("S", relation.Schema{"D", "E"})
	for i := 0; i < 1+rng.Intn(6); i++ {
		relDE.Append(relation.Value(rng.Intn(3)), relation.Value(rng.Intn(3)))
	}
	relDE.Dedup()
	trB := randomPathTree([]relation.Attribute{"D", "E"}, rng,
		[]relation.AttrSet{relation.NewAttrSet("D", "E")})
	eb, err := fromRelation(trB, relDE)
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
	return ConcatEnc(prod, ea, eb)
}

// collect drains an iterator into cloned tuples.
func collect(it TupleIter) []relation.Tuple {
	var out []relation.Tuple
	for {
		tp, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, tp.Clone())
	}
}

// refSorted enumerates e unordered and sorts with the retrieval comparator.
func refSorted(e *Enc, keys []OrderKey, less []ValueLess) []relation.Tuple {
	var out []relation.Tuple
	e.Enumerate(func(tp relation.Tuple) bool {
		out = append(out, tp.Clone())
		return true
	})
	cmp := TupleCompare(e.Schema(), keys, less)
	sort.SliceStable(out, func(i, j int) bool { return cmp(out[i], out[j]) < 0 })
	return out
}

func tuplesEqual(a, b []relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Compare(b[i]) != 0 {
			return false
		}
	}
	return true
}

// zigzagLess is a non-native total order (rank by value mod 3, ties by
// value): it stands in for a string key's order and forces real sort
// permutations.
func zigzagLess(a, b relation.Value) bool {
	if a%3 != b%3 {
		return a%3 < b%3
	}
	return a < b
}

// Property: when ResolveOrder accepts the keys, ordered enumeration is
// exactly the unordered enumeration sorted by the retrieval comparator —
// for native order, permuted order, and mixed directions and comparators
// alike.
func TestOrderedEnumerationIsSortedPermutation(t *testing.T) {
	for seed := int64(1); seed <= 120; seed++ {
		rng := rand.New(rand.NewSource(seed * 77))
		e := orderEnc(t, seed, seed%3 == 0)
		schema := e.Schema()
		// Keys over a random prefix of the pre-order attribute sequence
		// (always resolvable), random directions, sometimes permuted order.
		k := 1 + rng.Intn(len(schema))
		var keys []OrderKey
		for i := 0; i < k; i++ {
			keys = append(keys, OrderKey{Attr: schema[i], Desc: rng.Intn(2) == 1})
		}
		var less []ValueLess
		if rng.Intn(2) == 1 {
			less = make([]ValueLess, k)
			for i := range less {
				if rng.Intn(2) == 1 {
					less[i] = zigzagLess
				}
			}
		}
		_, ord, ok := ResolveOrder(e.Tree, keys, less)
		if !ok {
			t.Fatalf("seed %d: prefix keys %v did not resolve", seed, keys)
		}
		got := collect(NewEncIterator(e, ord))
		want := refSorted(e, keys, less)
		if !tuplesEqual(got, want) {
			t.Fatalf("seed %d: ordered enumeration diverges for keys %v (less=%v)\ngot  %v\nwant %v",
				seed, keys, less != nil, got, want)
		}
	}
}

// strBase is where the "strings" of scrambledLess begin.
const strBase = 1000

// scrambledLess stands in for a string key's order: values rank by a fixed
// scramble of their code. It counts its calls in *n.
func scrambledLess(n *int) ValueLess {
	scramble := func(v relation.Value) relation.Value { return v * 7919 % 10007 }
	return func(a, b relation.Value) bool {
		*n++
		return scramble(a) < scramble(b)
	}
}

// stringKeyEnc hand-builds A → B: u root entries -u..-1, each over the same
// width-entry union of strings from strBase, stored in code order. With
// second, a second root C holds width strings from 2*strBase.
func stringKeyEnc(u, width int, second bool) *Enc {
	roots := []*ftree.Node{ftree.NewNode("A").Add(ftree.NewNode("B"))}
	rels := []relation.AttrSet{relation.NewAttrSet("A", "B")}
	if second {
		roots = append(roots, ftree.NewNode("C"))
		rels = append(rels, relation.NewAttrSet("C"))
	}
	b := NewEncBuilder(ftree.New(roots, rels))
	ai, bi := b.Roots()[0], b.Kids(b.Roots()[0])[0]
	for a := -u; a < 0; a++ {
		b.Append(ai, relation.Value(a))
		for j := 0; j < width; j++ {
			b.Append(bi, relation.Value(strBase+j))
		}
		b.CloseUnion(bi)
	}
	b.CloseUnion(ai)
	if second {
		ci := b.Roots()[1]
		for j := 0; j < width; j++ {
			b.Append(ci, relation.Value(2*strBase+j))
		}
		b.CloseUnion(ci)
	}
	return b.Finish()
}

// Ordered retrieval puts a union in key order when the odometer seats it,
// not up front: Limit(k) over U ≫ k unions of a scrambled string key does sort
// work independent of U, in both directions — and so it does not pay for
// unions it never reads. A full drain sorts each union once: reseating a
// later root whose union did not change re-sorts nothing.
func TestOrderedLimitSortsOnlyVisitedUnions(t *testing.T) {
	for _, desc := range []bool{false, true} {
		keys := []OrderKey{{Attr: "A", Desc: desc}, {Attr: "B", Desc: desc}}
		limited := func(u int) int {
			n := 0
			e := stringKeyEnc(u, 8, false)
			_, ord, ok := ResolveOrder(e.Tree, keys, []ValueLess{nil, scrambledLess(&n)})
			if !ok {
				t.Fatal("keys did not resolve")
			}
			got := collect(Clip(NewEncIterator(e, ord), 0, 20))
			if want := refSorted(e, keys, []ValueLess{nil, scrambledLess(new(int))})[:20]; !tuplesEqual(got, want) {
				t.Fatalf("desc=%v U=%d: Limit(20) is not the ordered prefix", desc, u)
			}
			return n
		}
		small, large := limited(64), limited(4096)
		if small == 0 || small != large {
			t.Fatalf("desc=%v: Limit(20) made %d string comparisons over 64 unions, %d over 4096; want the same nonzero count",
				desc, small, large)
		}

		keys = append(keys, OrderKey{Attr: "C", Desc: desc})
		drained := func(u int) int {
			n := 0
			e := stringKeyEnc(u, 8, true)
			_, ord, ok := ResolveOrder(e.Tree, keys, []ValueLess{nil, scrambledLess(new(int)), scrambledLess(&n)})
			if !ok {
				t.Fatal("keys did not resolve")
			}
			ref := refSorted(e, keys, []ValueLess{nil, scrambledLess(new(int)), scrambledLess(new(int))})
			if got := collect(NewEncIterator(e, ord)); !tuplesEqual(got, ref) {
				t.Fatalf("desc=%v U=%d: full ordered drain diverges from the reference", desc, u)
			}
			return n
		}
		if small, large := drained(2), drained(64); small == 0 || small != large {
			t.Fatalf("desc=%v: sorting the second root's one union took %d comparisons under 2 first-root entries, %d under 64; want it sorted once",
				desc, small, large)
		}
	}
}

// Property: keys that do not resolve structurally are answered by SortedRows
// with the same sorted-sequence semantics, including offset/limit clipping
// through the bounded heap (the heap keeps offset+limit rows, Clip drops the
// offset — the composition Result.Iter uses).
func TestSortedFallbackMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 120; seed++ {
		rng := rand.New(rand.NewSource(seed * 131))
		e := orderEnc(t, seed, seed%2 == 0)
		schema := e.Schema()
		perm := rng.Perm(len(schema))
		var keys []OrderKey
		for _, i := range perm[:1+rng.Intn(len(schema))] {
			keys = append(keys, OrderKey{Attr: schema[i], Desc: rng.Intn(2) == 1})
		}
		offset := rng.Intn(4)
		limit := -1
		if rng.Intn(2) == 0 {
			limit = rng.Intn(8)
		}
		want := refSorted(e, keys, nil)
		if offset >= len(want) {
			want = nil
		} else {
			want = want[offset:]
		}
		if limit >= 0 && len(want) > limit {
			want = want[:limit]
		}
		k := -1
		if limit >= 0 {
			k = offset + limit
		}
		got := collect(Clip(ReplayIter(e.Schema(), SortedRows([]*Enc{e}, keys, nil, k)), offset, limit))
		if !tuplesEqual(got, want) {
			t.Fatalf("seed %d: fallback diverges for keys %v offset %d limit %d", seed, keys, offset, limit)
		}
	}
}

// Property: Clip(n) of the ordered stream equals the first n tuples of the
// full ordered stream, and Reset replays it.
func TestLimitIsPrefixOfOrderedStream(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed * 19))
		e := orderEnc(t, seed, false)
		schema := e.Schema()
		keys := []OrderKey{{Attr: schema[0], Desc: rng.Intn(2) == 1}}
		_, ord, ok := ResolveOrder(e.Tree, keys, nil)
		if !ok {
			t.Fatalf("seed %d: root key did not resolve", seed)
		}
		full := collect(NewEncIterator(e, ord))
		n := rng.Intn(len(full) + 2)
		it := Clip(NewEncIterator(e, ord), 0, n)
		got := collect(it)
		want := full
		if len(want) > n {
			want = want[:n]
		}
		if !tuplesEqual(got, want) {
			t.Fatalf("seed %d: Limit(%d) is not the ordered prefix", seed, n)
		}
		it.Reset()
		if !tuplesEqual(collect(it), want) {
			t.Fatalf("seed %d: Reset does not replay the clipped stream", seed)
		}
	}
}

// Top-k short-circuits: with Limit(n), retrieval visits O(n) entries of the
// encoding, not the whole representation — in stored order (no plan) and
// under an order plan alike.
func TestOrderedLimitShortCircuits(t *testing.T) {
	r := relation.New("R", relation.Schema{"A", "B", "C"})
	for a := 0; a < 1000; a++ {
		for b := 0; b < 3; b++ {
			r.Append(relation.Value(a), relation.Value(b), relation.Value(a%7))
		}
	}
	tr := ftree.New([]*ftree.Node{
		ftree.NewNode("A").Add(ftree.NewNode("B").Add(ftree.NewNode("C"))),
	}, []relation.AttrSet{relation.NewAttrSet("A", "B", "C")})
	e, err := fromRelation(tr, r)
	if err != nil {
		t.Fatal(err)
	}
	if e.NumEntries(0) != 1000 {
		t.Fatalf("root has %d entries, want 1000", e.NumEntries(0))
	}
	plans := map[string]*EncOrder{"stored": nil}
	for _, desc := range []bool{false, true} {
		_, ord, ok := ResolveOrder(e.Tree, []OrderKey{{Attr: "A", Desc: desc}}, nil)
		if !ok {
			t.Fatal("root key did not resolve")
		}
		plans[OrderKey{Attr: "A", Desc: desc}.String()] = ord
	}
	for desc, ord := range plans {
		it := NewEncIterator(e, ord)
		clipped := Clip(it, 0, 5)
		n := 0
		for {
			if _, ok := clipped.Next(); !ok {
				break
			}
			n++
		}
		if n != 5 {
			t.Fatalf("%s: got %d tuples, want 5", desc, n)
		}
		// 5 tuples over a depth-3 tree: a handful of seatings per Next, not
		// one per root entry.
		if v := it.Visited(); v > 64 {
			t.Fatalf("%s: top-5 visited %d entries (want O(5), representation has %d root entries)",
				desc, v, e.NumEntries(0))
		}
	}
}

// Reindex: permuting root order yields a view over the shared arena whose
// enumeration is the sorted-by-new-schema sequence of the same tuples.
func TestReindexReordersEnumeration(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		e := orderEnc(t, seed, true)
		if len(e.Tree.Roots) < 2 || e.IsEmpty() {
			continue
		}
		nt := e.Tree.Clone()
		nt.Roots[0], nt.Roots[1] = nt.Roots[1], nt.Roots[0]
		re, err := e.Reindex(nt)
		if err != nil {
			t.Fatalf("seed %d: reindex: %v", seed, err)
		}
		if err := re.Validate(); err != nil {
			t.Fatalf("seed %d: reindexed enc fails Validate: %v", seed, err)
		}
		if re.Count() != e.Count() {
			t.Fatalf("seed %d: reindex changed Count", seed)
		}
		got := collect(NewEncIterator(re, nil))
		want := refSorted(re, nil, nil)
		if !tuplesEqual(got, want) {
			t.Fatalf("seed %d: reindexed enumeration is not schema-lexicographic", seed)
		}
	}
}
