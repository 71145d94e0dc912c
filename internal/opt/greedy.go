package opt

import (
	"fmt"

	"repro/internal/fplan"
	"repro/internal/ftree"
	"repro/internal/relation"
)

// GreedyPlan implements the greedy heuristic of Section 4.3. For each
// remaining condition A = B it costs three restructuring scenarios — swap A
// up until it is an ancestor of B (then absorb), the converse, or bring
// both up until they are siblings (then merge) — applies the cheapest
// condition first, and repeats on the resulting tree. Runs in polynomial
// time in the size of the input f-tree. Scenarios are scored by the
// asymptotic cost s(T); GreedyPlanWithCost takes the measure as a parameter.
func GreedyPlan(t0 *ftree.T, conds []Condition) (PlanResult, error) {
	return GreedyPlanWithCost(t0, conds, SCost{})
}

// fplanOps is a scenario: a list of operators ending in a merge/absorb.
type fplanOps = []fplan.Op

// planOf wraps an operator list in a Plan.
func planOf(ops []fplan.Op) fplan.Plan { return fplan.Plan{Ops: ops} }

// errNoScenario reports that no restructuring scenario applies.
func errNoScenario(conds []Condition) error {
	return fmt.Errorf("opt: no applicable scenario for %v", conds)
}

// scenarioCandidates returns the applicable restructurings of Section 4.3
// for one condition: A above B then absorb, B above A then absorb, or both
// to siblings then merge.
func scenarioCandidates(t *ftree.T, c Condition) []fplanOps {
	var cands []fplanOps
	if ops, _, err := promoteToAncestor(t, c.A, c.B); err == nil {
		cands = append(cands, append(ops, fplan.Absorb{A: c.A, B: c.B}))
	}
	if ops, _, err := promoteToAncestor(t, c.B, c.A); err == nil {
		cands = append(cands, append(ops, fplan.Absorb{A: c.B, B: c.A}))
	}
	if ops, _, err := promoteToSiblings(t, c.A, c.B); err == nil {
		cands = append(cands, append(ops, fplan.Merge{A: c.A, B: c.B}))
	}
	return cands
}

// promoteToAncestor swaps node a upward until it is an ancestor of node b
// (both in the same tree) and returns the swaps with their max s. Fails if
// the nodes are in different trees.
func promoteToAncestor(t *ftree.T, a, b relation.Attribute) ([]fplan.Op, float64, error) {
	w := t.Clone()
	var ops []fplan.Op
	s := w.S()
	for {
		na, nb := w.NodeOf(a), w.NodeOf(b)
		if na == nil || nb == nil {
			return nil, 0, fmt.Errorf("opt: attribute missing")
		}
		if w.IsAncestor(na, nb) {
			return ops, s, nil
		}
		p := w.ParentOf(na)
		if p == nil {
			return nil, 0, fmt.Errorf("opt: %s cannot become an ancestor of %s (different trees)", a, b)
		}
		op := fplan.Swap{A: p.Attrs[0], B: a}
		if err := op.ApplyTree(w); err != nil {
			return nil, 0, err
		}
		ops = append(ops, op)
		if v := w.S(); v > s {
			s = v
		}
	}
}

// promoteToSiblings swaps a and b upward until they are siblings: children
// of their lowest common ancestor, or both roots when in different trees.
func promoteToSiblings(t *ftree.T, a, b relation.Attribute) ([]fplan.Op, float64, error) {
	w := t.Clone()
	var ops []fplan.Op
	s := w.S()
	raise := func(x relation.Attribute, stop func() bool) error {
		for !stop() {
			nx := w.NodeOf(x)
			p := w.ParentOf(nx)
			if p == nil {
				return fmt.Errorf("opt: %s reached a root before the target", x)
			}
			op := fplan.Swap{A: p.Attrs[0], B: x}
			if err := op.ApplyTree(w); err != nil {
				return err
			}
			ops = append(ops, op)
			if v := w.S(); v > s {
				s = v
			}
		}
		return nil
	}
	sameTree := func() bool {
		ra := w.PathTo(w.NodeOf(a))[0]
		rb := w.PathTo(w.NodeOf(b))[0]
		return ra == rb
	}
	if !sameTree() {
		// Different trees: promote both to roots.
		if err := raise(a, func() bool { return w.ParentOf(w.NodeOf(a)) == nil }); err != nil {
			return nil, 0, err
		}
		if err := raise(b, func() bool { return w.ParentOf(w.NodeOf(b)) == nil }); err != nil {
			return nil, 0, err
		}
		return ops, s, nil
	}
	// Same tree: if one is an ancestor of the other this scenario does not
	// apply (absorb handles it).
	if w.IsAncestor(w.NodeOf(a), w.NodeOf(b)) || w.IsAncestor(w.NodeOf(b), w.NodeOf(a)) {
		return nil, 0, fmt.Errorf("opt: %s and %s are on one path; sibling scenario not applicable", a, b)
	}
	lca := func() *ftree.Node {
		pa := w.PathTo(w.NodeOf(a))
		pb := w.PathTo(w.NodeOf(b))
		on := map[*ftree.Node]bool{}
		for _, n := range pa {
			on[n] = true
		}
		var deepest *ftree.Node
		for _, n := range pb {
			if on[n] {
				deepest = n
			}
		}
		return deepest
	}
	// Raising a node can change the other's path, so re-derive the LCA in
	// each stop check.
	if err := raise(a, func() bool { return w.ParentOf(w.NodeOf(a)) == lca() }); err != nil {
		return nil, 0, err
	}
	if err := raise(b, func() bool { return w.ParentOf(w.NodeOf(b)) == lca() }); err != nil {
		return nil, 0, err
	}
	return ops, s, nil
}
