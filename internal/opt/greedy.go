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
// time in the size of the input f-tree. Scenarios are scored by the plan
// cost s(f) of Section 4.1 (fplan.Plan.SimulateTree); the plan's cost is the
// maximum over the chosen scenarios, each of which starts where the last
// one ended.
func GreedyPlan(t0 *ftree.T, conds []Condition) (PlanResult, error) {
	cur := t0.Clone()
	var all fplanOps
	cost := cur.S()
	explored := 0
	for {
		rem := pending(cur, conds)
		if len(rem) == 0 {
			break
		}
		bestCost := -1.0
		var bestOps fplanOps
		var bestFinal *ftree.T
		for _, c := range rem {
			ops, final, s, err := bestScenario(cur, c)
			if err != nil {
				return PlanResult{}, err
			}
			explored++
			if bestCost < 0 || s < bestCost || (s == bestCost && len(ops) < len(bestOps)) {
				bestCost, bestOps, bestFinal = s, ops, final
			}
		}
		if bestOps == nil {
			return PlanResult{}, errNoScenario(rem)
		}
		cost = max(cost, bestCost)
		cur = bestFinal
		all = append(all, bestOps...)
	}
	return PlanResult{
		Plan:     planOf(all),
		Cost:     cost,
		FinalS:   cur.S(),
		Final:    cur,
		Explored: explored,
	}, nil
}

// bestScenario returns the cheapest applicable scenario for one condition,
// including the closing selection operator, with the tree it leads to and
// its cost s(f); ties prefer fewer operators.
func bestScenario(t *ftree.T, c Condition) (fplanOps, *ftree.T, float64, error) {
	cands := scenarioCandidates(t, c)
	if len(cands) == 0 {
		return nil, nil, 0, errNoScenario([]Condition{c})
	}
	bestS := -1.0
	var best fplanOps
	var bestFinal *ftree.T
	for _, cd := range cands {
		final, s, err := planOf(cd).SimulateTree(t)
		if err != nil {
			return nil, nil, 0, err
		}
		if bestS < 0 || s < bestS || (s == bestS && len(cd) < len(best)) {
			bestS, best, bestFinal = s, cd, final
		}
	}
	return best, bestFinal, bestS, nil
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
	if ops, err := promoteToAncestor(t, c.A, c.B); err == nil {
		cands = append(cands, append(ops, fplan.Absorb{A: c.A, B: c.B}))
	}
	if ops, err := promoteToAncestor(t, c.B, c.A); err == nil {
		cands = append(cands, append(ops, fplan.Absorb{A: c.B, B: c.A}))
	}
	if ops, err := promoteToSiblings(t, c.A, c.B); err == nil {
		cands = append(cands, append(ops, fplan.Merge{A: c.A, B: c.B}))
	}
	return cands
}

// promoteToAncestor swaps node a upward until it is an ancestor of node b
// (both in the same tree) and returns the swaps. Fails if the nodes are in
// different trees.
func promoteToAncestor(t *ftree.T, a, b relation.Attribute) ([]fplan.Op, error) {
	w := t.Clone()
	var ops []fplan.Op
	for {
		na, nb := w.NodeOf(a), w.NodeOf(b)
		if na == nil || nb == nil {
			return nil, fmt.Errorf("opt: attribute missing")
		}
		if w.IsAncestor(na, nb) {
			return ops, nil
		}
		p := w.ParentOf(na)
		if p == nil {
			return nil, fmt.Errorf("opt: %s cannot become an ancestor of %s (different trees)", a, b)
		}
		op := fplan.Swap{A: p.Attrs[0], B: a}
		if err := op.ApplyTree(w); err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
}

// promoteToSiblings swaps a and b upward until they are siblings: children
// of their lowest common ancestor, or both roots when in different trees.
func promoteToSiblings(t *ftree.T, a, b relation.Attribute) ([]fplan.Op, error) {
	w := t.Clone()
	var ops []fplan.Op
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
			return nil, err
		}
		if err := raise(b, func() bool { return w.ParentOf(w.NodeOf(b)) == nil }); err != nil {
			return nil, err
		}
		return ops, nil
	}
	// Same tree: if one is an ancestor of the other this scenario does not
	// apply (absorb handles it).
	if w.IsAncestor(w.NodeOf(a), w.NodeOf(b)) || w.IsAncestor(w.NodeOf(b), w.NodeOf(a)) {
		return nil, fmt.Errorf("opt: %s and %s are on one path; sibling scenario not applicable", a, b)
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
		return nil, err
	}
	if err := raise(b, func() bool { return w.ParentOf(w.NodeOf(b)) == lca() }); err != nil {
		return nil, err
	}
	return ops, nil
}
