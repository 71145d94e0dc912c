package opt

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/ftree"
	"repro/internal/gen"
	"repro/internal/relation"
)

func TestGreedyFTreeQ1(t *testing.T) {
	classes, rels := q1Query()
	tr, s, err := GreedyFTree(classes, rels)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid: %v\n%s", err, tr)
	}
	if !tr.IsNormalised() {
		t.Fatalf("greedy tree not normalised:\n%s", tr)
	}
	// The heuristic matches the optimum s(Q1) = 2 here.
	if math.Abs(s-2) > 1e-6 {
		t.Fatalf("greedy s(Q1) = %v, want 2\n%s", s, tr)
	}
	if math.Abs(tr.S()-s) > 1e-6 {
		t.Fatalf("reported s %v != tree s %v", s, tr.S())
	}
}

// randomQuery draws a random join query from the generator corpus used
// across the optimiser tests.
func randomQuery(t *testing.T, rng *rand.Rand) *core.Query {
	t.Helper()
	r := 2 + rng.Intn(3)
	a := 4 + rng.Intn(4)
	k := rng.Intn(4)
	sch, err := gen.RandomSchema(rng, r, a)
	if err != nil {
		t.Fatal(err)
	}
	eqs, err := gen.RandomEqualities(rng, sch, k)
	if err != nil {
		t.Fatal(err)
	}
	q := &core.Query{Equalities: eqs}
	for i, rs := range sch.Relations {
		q.Relations = append(q.Relations, relation.New(sch.Names[i], rs))
	}
	return q
}

// TestGreedyCostWithinSlack: on the seeded corpus the greedy tree must be
// valid, normalised, report its exact s(T), and stay within (1 + slack) of
// the exhaustive optimum. The random queries get slack 0.5; the retailer join
// and Example 6's chains of 4, 6 and 8 relations (30 tuples per relation,
// values from [1,10]) are the shapes greedy must all but solve, and get
// workloadSlack.
func TestGreedyCostWithinSlack(t *testing.T) {
	const slack, workloadSlack = 0.5, 0.15
	type input struct {
		name  string
		q     *core.Query
		slack float64
	}
	rng := rand.New(rand.NewSource(9))
	var inputs []input
	for trial := 0; trial < 120; trial++ {
		inputs = append(inputs, input{fmt.Sprintf("random %d", trial), randomQuery(t, rng), slack})
	}
	inputs = append(inputs, input{"retailer", gen.Retailer(rng, 1), workloadSlack})
	for _, n := range []int{4, 6, 8} {
		inputs = append(inputs, input{fmt.Sprintf("chain-%d", n), gen.ChainQuery(rng, n, 30, 10), workloadSlack})
	}
	worst := 1.0
	for trial, in := range inputs {
		classes, rels := in.q.Classes(), in.q.Schemas()
		gt, gs, err := GreedyFTree(classes, rels)
		if err != nil {
			t.Fatalf("%s: greedy: %v\nclasses: %s", in.name, err, canonicalClasses(classes))
		}
		if err := gt.Validate(); err != nil {
			t.Fatalf("%s: invalid greedy tree: %v\n%s", in.name, err, gt)
		}
		if !gt.IsNormalised() {
			t.Fatalf("%s: greedy tree not normalised:\n%s", in.name, gt)
		}
		if math.Abs(gt.S()-gs) > 1e-6 {
			t.Fatalf("%s: reported s %v != tree s %v", in.name, gs, gt.S())
		}
		_, os, err := OptimalFTree(classes, rels, TreeSearchOptions{})
		if err != nil {
			t.Fatalf("%s: exhaustive: %v", in.name, err)
		}
		if gs < os-1e-9 {
			t.Fatalf("%s: greedy s %v beats exhaustive optimum %v", in.name, gs, os)
		}
		if gs > os*(1+in.slack)+1e-9 {
			t.Fatalf("%s: greedy s %v exceeds %v x optimum %v\nclasses: %s",
				in.name, gs, 1+in.slack, os, canonicalClasses(classes))
		}
		if os > 0 && gs/os > worst {
			worst = gs / os
		}
		checkBelow(t, trial, gs, os, func(o TreeSearchOptions) (*ftree.T, float64, error) {
			return OptimalFTree(classes, rels, o)
		})
	}
	t.Logf("worst greedy/optimal cost ratio: %.3f", worst)
}

// checkBelow: a search bounded by the greedy incumbent's cost gs must find
// the optimum os exactly when that is strictly cheaper, and report
// ErrNoCheaper (never a tree, never a tie) when the incumbent is optimal.
func checkBelow(t *testing.T, trial int, gs, os float64, search func(TreeSearchOptions) (*ftree.T, float64, error)) {
	t.Helper()
	bt, bs, err := search(TreeSearchOptions{Below: gs - 1e-9})
	if gs <= os+1e-9 {
		if !errors.Is(err, ErrNoCheaper) {
			t.Fatalf("trial %d: incumbent %v is optimal, bounded search = (%v, %v), want ErrNoCheaper", trial, gs, bs, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("trial %d: bounded search below %v: %v (optimum %v)", trial, gs, err, os)
	}
	if math.Abs(bs-os) > 1e-9 || math.Abs(bt.S()-os) > 1e-6 {
		t.Fatalf("trial %d: bounded search found s %v (tree s %v), optimum %v", trial, bs, bt.S(), os)
	}
}

// TestBoundedSearchBeatsGreedy: the smallest known query (from the
// random-schema corpus; the root package's skewDB) on which the greedy tree
// is not optimal — s=2 against s=1 — so the incumbent-bounded search has
// something to find, free and with a forced order chain.
func TestBoundedSearchBeatsGreedy(t *testing.T) {
	q := &core.Query{
		Relations: []*relation.Relation{
			relation.New("r1", relation.Schema{"r1.x3", "r1.x6", "r1.x8"}),
			relation.New("r2", relation.Schema{"r2.x2", "r2.x7", "r2.x5"}),
			relation.New("r3", relation.Schema{"r3.x1", "r3.x4", "r3.x9"}),
		},
		Equalities: []core.Equality{
			{A: "r2.x5", B: "r3.x9"}, {A: "r3.x1", B: "r2.x7"}, {A: "r1.x6", B: "r1.x8"},
			{A: "r3.x4", B: "r1.x3"}, {A: "r3.x4", B: "r1.x6"},
		},
	}
	classes, rels := q.Classes(), q.Schemas()
	_, gs, err := GreedyFTree(classes, rels)
	if err != nil {
		t.Fatal(err)
	}
	_, os, err := OptimalFTree(classes, rels, TreeSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if gs <= os+1e-9 {
		t.Fatalf("skew query lost its skew: greedy s %v, optimum %v", gs, os)
	}
	checkBelow(t, 0, gs, os, func(o TreeSearchOptions) (*ftree.T, float64, error) {
		return OptimalFTree(classes, rels, o)
	})
	for c := range classes {
		chain := []int{c}
		_, cgs, gerr := GreedyFTreeOrdered(classes, rels, chain)
		_, cos, oerr := OptimalFTreeOrdered(classes, rels, chain, TreeSearchOptions{})
		if gerr != nil || oerr != nil {
			continue // order-incompatible chain
		}
		checkBelow(t, c, cgs, cos, func(o TreeSearchOptions) (*ftree.T, float64, error) {
			return OptimalFTreeOrdered(classes, rels, chain, o)
		})
	}
}

// preorderClasses returns the attribute sets of the first n nodes of the
// forest's pre-order walk.
func preorderClasses(tr *ftree.T, n int) []relation.AttrSet {
	var out []relation.AttrSet
	var walk func(nd *ftree.Node)
	walk = func(nd *ftree.Node) {
		if len(out) >= n {
			return
		}
		out = append(out, relation.NewAttrSet(nd.Attrs...))
		for _, ch := range nd.Children {
			walk(ch)
		}
	}
	for _, r := range tr.Roots {
		if len(out) >= n {
			break
		}
		walk(r)
	}
	return out
}

// TestGreedyFTreeOrdered: the forced chain must label the first pre-order
// nodes, the heuristic must agree with the exhaustive ordered search on
// which chains are order-incompatible, and its cost must stay within slack
// of the ordered optimum.
func TestGreedyFTreeOrdered(t *testing.T) {
	const slack = 0.5
	rng := rand.New(rand.NewSource(31))
	compared := 0
	for trial := 0; trial < 150; trial++ {
		q := randomQuery(t, rng)
		classes, rels := q.Classes(), q.Schemas()
		chain := rng.Perm(len(classes))[:1+rng.Intn(min(3, len(classes)))]
		gt, gs, gerr := GreedyFTreeOrdered(classes, rels, chain)
		ot, os, oerr := OptimalFTreeOrdered(classes, rels, chain, TreeSearchOptions{})
		if (gerr == nil) != (oerr == nil) {
			t.Fatalf("trial %d: greedy err %v vs exhaustive err %v\nclasses: %s chain %v",
				trial, gerr, oerr, canonicalClasses(classes), chain)
		}
		if gerr != nil {
			if !errors.Is(gerr, ErrOrderIncompatible) || !errors.Is(oerr, ErrOrderIncompatible) {
				t.Fatalf("trial %d: unexpected errors %v / %v", trial, gerr, oerr)
			}
			continue
		}
		compared++
		if err := gt.Validate(); err != nil {
			t.Fatalf("trial %d: invalid: %v\n%s", trial, err, gt)
		}
		for i, cs := range preorderClasses(gt, len(chain)) {
			want := classes[chain[i]]
			same := len(cs) == len(want)
			for a := range want {
				same = same && cs.Has(a)
			}
			if !same {
				t.Fatalf("trial %d: pre-order node %d is %v, want class %v\n%s",
					trial, i, cs, want, gt)
			}
		}
		if gs < os-1e-9 {
			t.Fatalf("trial %d: greedy ordered s %v beats optimum %v\n%s\nvs\n%s", trial, gs, os, gt, ot)
		}
		if gs > os*(1+slack)+1e-9 {
			t.Fatalf("trial %d: greedy ordered s %v exceeds %v x optimum %v (chain %v)",
				trial, gs, 1+slack, os, chain)
		}
		checkBelow(t, trial, gs, os, func(o TreeSearchOptions) (*ftree.T, float64, error) {
			return OptimalFTreeOrdered(classes, rels, chain, o)
		})
	}
	if compared < 30 {
		t.Fatalf("only %d compatible chains compared; corpus too hostile", compared)
	}
}

// TestGreedyBudgetIndependence: a query wide enough to blow a small
// exhaustive budget still plans greedily — GreedyFTree has no budget and can
// never return ErrBudget.
func TestGreedyBudgetIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := gen.ChainQuery(rng, 10, 4, 10)
	classes, rels := q.Classes(), q.Schemas()
	if _, _, err := OptimalFTree(classes, rels, TreeSearchOptions{Budget: 20}); !errors.Is(err, ErrBudget) {
		t.Fatalf("exhaustive with budget 20 = %v, want ErrBudget", err)
	}
	tr, s, err := GreedyFTree(classes, rels)
	if err != nil {
		t.Fatalf("greedy: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid: %v\n%s", err, tr)
	}
	if s <= 0 {
		t.Fatalf("greedy cost %v", s)
	}
}

// TestGreedyFTreeUncoverable: a class outside every relation is uncoverable;
// greedy must fail loudly exactly like the exhaustive search, not return
// ErrBudget or a bogus tree.
func TestGreedyFTreeUncoverable(t *testing.T) {
	classes := []relation.AttrSet{
		relation.NewAttrSet("A"),
		relation.NewAttrSet("ghost"),
	}
	rels := []relation.AttrSet{relation.NewAttrSet("A")}
	if _, _, err := GreedyFTree(classes, rels); err == nil || errors.Is(err, ErrBudget) {
		t.Fatalf("greedy on uncoverable query = %v, want hard error", err)
	}
}
