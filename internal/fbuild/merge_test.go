package fbuild

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ftree"
	"repro/internal/gen"
	"repro/internal/opt"
	"repro/internal/relation"
)

// TestMergeEncMatchesRebuild: folding random add/remove deltas into a built
// representation is column-for-column identical to rebuilding from the
// post-delta snapshots, across random queries, delta mixes and skews.
func TestMergeEncMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(90210))
	trials := 80
	if testing.Short() {
		trials = 25
	}
	merged := 0
	for trial := 0; trial < trials; trial++ {
		dist := gen.Uniform
		if trial%2 == 1 {
			dist = gen.Zipf
		}
		r := 1 + rng.Intn(3)
		a := r + rng.Intn(4)
		k := rng.Intn(min(a-1, 3) + 1)
		q, err := gen.RandomQuery(rng, r, a, 5+rng.Intn(60), k, dist, 8)
		if err != nil {
			t.Fatal(err)
		}
		tr, _, err := opt.OptimalFTree(q.Classes(), q.Schemas(), opt.TreeSearchOptions{})
		if err != nil {
			continue
		}
		final := cloneRels(q.Relations)
		for _, rel := range final {
			rel.Dedup()
		}
		// Derive a base state and the delta that turns it into final:
		// "adds" are final tuples absent from the base, "dels" are extra
		// tuples present only in the base.
		base := make([]*relation.Relation, len(final))
		deltas := make([]RelDelta, len(final))
		for i, rel := range final {
			b := relation.New(rel.Name, rel.Schema)
			inFinal := map[string]bool{}
			for _, tp := range rel.Tuples {
				key := fmt.Sprint(tp)
				inFinal[key] = true
				if rng.Intn(10) == 0 { // ~10% of final is freshly added
					deltas[i].Adds = append(deltas[i].Adds, tp)
				} else {
					b.AppendTuple(tp)
				}
			}
			for n := rng.Intn(3); n > 0; n-- { // a few deleted strays
				tp := make(relation.Tuple, len(rel.Schema))
				for c := range tp {
					tp[c] = relation.Value(rng.Intn(80))
				}
				if !inFinal[fmt.Sprint(tp)] {
					deltas[i].Dels = append(deltas[i].Dels, tp)
					b.AppendTuple(tp)
				}
			}
			b.Dedup()
			base[i] = b
		}
		old, err := BuildEnc(base, tr.Clone())
		if err != nil {
			t.Fatalf("trial %d: base build: %v", trial, err)
		}
		want, err := BuildEnc(cloneRels(final), tr.Clone())
		if err != nil {
			t.Fatalf("trial %d: rebuild: %v", trial, err)
		}
		got, ok, err := MergeEnc(final, tr.Clone(), old, deltas)
		if err != nil {
			t.Fatalf("trial %d: merge: %v", trial, err)
		}
		if !ok {
			// The caller would rebuild, and want is that rebuild. A refusal is
			// legitimate for an empty base or a changed relation dormant at
			// its root; anything else is a merge that should have happened.
			if !old.IsEmpty() && !dormantDelta(tr, final, deltas) {
				t.Fatalf("trial %d: merge refused a non-empty base with every delta anchored\ntree:\n%s", trial, tr)
			}
			if err := want.Validate(); err != nil {
				t.Fatalf("trial %d: rebuilt enc invalid: %v", trial, err)
			}
			continue
		}
		if dormantDelta(tr, final, deltas) {
			t.Fatalf("trial %d: merge accepted a delta on a relation dormant at its root\ntree:\n%s", trial, tr)
		}
		merged++
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: merged enc invalid: %v\ntree:\n%s", trial, err, tr)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: merged enc differs from rebuild\ntree:\n%s", trial, tr)
		}
	}
	if merged == 0 {
		t.Fatal("no trial exercised the merge path")
	}
}

// dormantDelta reports whether some changed relation has no attribute in a
// root class of tr — the case MergeEnc leaves to the caller's full build.
func dormantDelta(tr *ftree.T, rels []*relation.Relation, deltas []RelDelta) bool {
	for i, r := range rels {
		if deltas[i].empty() {
			continue
		}
		anchored := false
		for _, a := range r.Schema {
			if n := tr.NodeOf(a); n != nil && tr.ParentOf(n) == nil {
				anchored = true
			}
		}
		if !anchored {
			return true
		}
	}
	return false
}

// TestMergeEncNoDelta: an all-empty delta set degenerates to whole-root
// bulk copies and reproduces the input exactly.
func TestMergeEncNoDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := gen.ChainQuery(rng, 3, 50, 20)
	tr, _, err := opt.OptimalFTree(q.Classes(), q.Schemas(), opt.TreeSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rels := cloneRels(q.Relations)
	for _, r := range rels {
		r.Dedup()
	}
	old, err := BuildEnc(rels, tr.Clone())
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := MergeEnc(rels, tr.Clone(), old, make([]RelDelta, len(rels)))
	if err != nil || !ok {
		t.Fatalf("merge: ok=%v err=%v", ok, err)
	}
	if !got.Equal(old) {
		t.Fatal("no-delta merge changed the representation")
	}
}

// TestMergeEncToEmpty: deletions that kill every joining tuple collapse the
// merge to the canonical empty representation.
func TestMergeEncToEmpty(t *testing.T) {
	mk := func(vals [][2]int) *relation.Relation {
		r := relation.New("R", relation.Schema{"R.a", "R.b"})
		for _, v := range vals {
			r.Append(relation.Value(v[0]), relation.Value(v[1]))
		}
		return r
	}
	s := relation.New("S", relation.Schema{"S.a"})
	s.Append(relation.Value(1))
	full := mk([][2]int{{1, 10}, {1, 11}})
	tr, _, err := opt.OptimalFTree(
		[]relation.AttrSet{relation.NewAttrSet("R.a", "S.a"), relation.NewAttrSet("R.b")},
		[]relation.AttrSet{relation.NewAttrSet("R.a", "R.b"), relation.NewAttrSet("S.a")},
		opt.TreeSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	old, err := BuildEnc([]*relation.Relation{full, s}, tr.Clone())
	if err != nil {
		t.Fatal(err)
	}
	empty := mk(nil)
	got, ok, err := MergeEnc([]*relation.Relation{empty, s}, tr.Clone(), old,
		[]RelDelta{{Dels: full.Tuples}, {}})
	if err != nil || !ok {
		t.Fatalf("merge: ok=%v err=%v", ok, err)
	}
	if !got.IsEmpty() {
		t.Fatal("merge of total deletion should be empty")
	}
}

// TestMergeEncRefusals: nil/empty bases and shape mismatches report
// not-applicable instead of corrupting anything.
func TestMergeEncRefusals(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := gen.ChainQuery(rng, 2, 30, 10)
	tr, _, err := opt.OptimalFTree(q.Classes(), q.Schemas(), opt.TreeSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rels := cloneRels(q.Relations)
	for _, r := range rels {
		r.Dedup()
	}
	if _, ok, _ := MergeEnc(rels, tr.Clone(), nil, make([]RelDelta, len(rels))); ok {
		t.Fatal("merge into nil must refuse")
	}
	old, err := BuildEnc(rels, tr.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := MergeEnc(rels, tr.Clone(), old, nil); ok {
		t.Fatal("delta/relation count mismatch must refuse")
	}
}

// TestMergeEncCancel: a cancelled context aborts the merge.
func TestMergeEncCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	q := bigRetailerLike(rng)
	tr, _, err := opt.OptimalFTree(q.Classes(), q.Schemas(), opt.TreeSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rels := cloneRels(q.Relations)
	for _, r := range rels {
		r.Dedup()
	}
	old, err := BuildEnc(cloneRels(rels), tr.Clone())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	deltas := make([]RelDelta, len(rels))
	deltas[0].Adds = rels[0].Tuples
	if _, _, err := MergeEncContext(ctx, rels, tr.Clone(), old, deltas); err == nil {
		t.Fatal("cancelled merge should report the context error")
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
