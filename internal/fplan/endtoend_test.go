package fplan

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/frep"
	"repro/internal/ftree"
	"repro/internal/relation"
)

// productFixture factorises a random R(A,B) × S(C,D) over the forest
// A→B, C→D.
func productFixture(t *testing.T, rng *rand.Rand) *frep.Enc {
	t.Helper()
	deps := []relation.AttrSet{
		relation.NewAttrSet("A", "B"),
		relation.NewAttrSet("C", "D"),
	}
	ra := relation.New("RA", relation.Schema{"A", "B"})
	rc := relation.New("RC", relation.Schema{"C", "D"})
	for i := 0; i < 4+rng.Intn(16); i++ {
		ra.Append(relation.Value(rng.Intn(3)), relation.Value(rng.Intn(3)))
	}
	for i := 0; i < 4+rng.Intn(16); i++ {
		rc.Append(relation.Value(rng.Intn(3)), relation.Value(rng.Intn(3)))
	}
	roots := []*ftree.Node{
		ftree.NewNode("A").Add(ftree.NewNode("B")),
		ftree.NewNode("C").Add(ftree.NewNode("D")),
	}
	return mustEnc(t, ftree.New(roots, deps), ra.Product(rc))
}

// TestRandomOperatorSequences is the strongest operator-level property
// test: starting from a factorisation of a random product over a forest,
// apply a random sequence of operators — applicable or not — and verify
// after every step everything applyChecked checks: ApplyEnc and ApplyTree
// agree on applicability and on the resulting tree, the structure stays
// valid, the input is untouched, and the represented relation is the
// operator's flat semantics on the previous one.
func TestRandomOperatorSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	applied := map[string]int{}
	for trial := 0; trial < 200; trial++ {
		e := productFixture(t, rng)
		for s := 0; s < 6; s++ {
			op := randomOp(rng, e.Tree)
			if op == nil {
				continue
			}
			if out := applyChecked(t, op, e); out != nil {
				e = out
				applied[string([]rune(op.String())[:1])]++
			}
		}
	}
	// Every operator kind must have been applicable at least once, or the
	// property above says nothing about it. (A bare ψ never is: operators
	// keep their output normalised. It runs inside η, α and σ_=, and on its
	// own in TestNormalisePushesIndependentParts.)
	for _, k := range []string{"χ", "μ", "α", "σ", "η", "π", "λ", "δ"} {
		if applied[k] == 0 {
			t.Errorf("operator %s never applied", k)
		}
	}
}

// randomOp picks a random operator over t's visible attributes (every node
// left by a projection still has one); applicability is not guaranteed —
// agreeing with ApplyTree on rejection is part of the property.
func randomOp(rng *rand.Rand, t *ftree.T) Op {
	attrs := t.VisibleAttrs().Sorted()
	if len(attrs) == 0 {
		return nil
	}
	pick := func() relation.Attribute { return attrs[rng.Intn(len(attrs))] }
	subset := func() []relation.Attribute {
		out := []relation.Attribute{pick()}
		for _, a := range attrs {
			if a != out[0] && rng.Intn(2) == 0 {
				out = append(out, a)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	switch rng.Intn(10) {
	case 0:
		a := pick()
		n := t.NodeOf(a)
		if len(n.Children) == 0 {
			return nil
		}
		return Swap{A: a, B: n.Children[rng.Intn(len(n.Children))].Attrs[0]}
	case 1:
		return Merge{A: pick(), B: pick()}
	case 2, 3:
		return Absorb{A: pick(), B: pick()}
	case 4:
		ops := []Cmp{Eq, Ne, Lt, Le, Gt, Ge}
		return SelectConst{A: pick(), Op: ops[rng.Intn(len(ops))], C: relation.Value(rng.Intn(3))}
	case 5:
		return PushUp{B: pick()}
	case 6:
		// Predicate selection: parity (a code-order-free predicate, like the
		// decoded-order string ranges SelectFn exists for).
		return SelectFn{A: pick(), Keep: func(v relation.Value) bool { return v%2 == 0 }, Label: "even"}
	case 7:
		if rng.Intn(2) == 0 {
			return Distinct{}
		}
		return Normalise{}
	case 8:
		if len(attrs) < 2 {
			return nil
		}
		// Drop one attribute only, so sequences stay interesting.
		drop := pick()
		var keep []relation.Attribute
		for _, a := range attrs {
			if a != drop {
				keep = append(keep, a)
			}
		}
		return Project{Attrs: keep}
	default:
		return Lift{Attrs: subset()}
	}
}
