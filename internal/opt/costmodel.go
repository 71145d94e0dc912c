package opt

import (
	"repro/internal/ftree"
	"repro/internal/stats"
)

// CostModel abstracts the two f-plan cost measures of Section 4.1: the
// asymptotic measure based on s(T) (tight size bounds for any database)
// and the estimate-based measure derived from catalogue statistics. The
// greedy optimiser accepts either; the paper reports that both lead to
// very similar plan choices, which BenchmarkCostModelAblation checks.
type CostModel interface {
	// TreeCost scores a single f-tree; lower is better.
	TreeCost(t *ftree.T) float64
	// Combine folds the cost of one more intermediate tree into a running
	// plan cost (max for the asymptotic measure, sum for estimates).
	Combine(planCost, treeCost float64) float64
}

// SCost is the asymptotic cost measure: TreeCost = s(T), Combine = max.
type SCost struct{}

// TreeCost implements CostModel.
func (SCost) TreeCost(t *ftree.T) float64 { return t.S() }

// Combine implements CostModel.
func (SCost) Combine(planCost, treeCost float64) float64 {
	if treeCost > planCost {
		return treeCost
	}
	return planCost
}

// EstimateCost scores trees by the catalogue-based size estimate
// Σ_A |Q_anc(A)| and accumulates plan cost additively (total intermediate
// volume).
type EstimateCost struct {
	Cat *stats.Catalogue
}

// TreeCost implements CostModel.
func (e EstimateCost) TreeCost(t *ftree.T) float64 { return e.Cat.EstimateSize(t) }

// Combine implements CostModel.
func (EstimateCost) Combine(planCost, treeCost float64) float64 {
	return planCost + treeCost
}

// GreedyPlanWithCost is GreedyPlan parameterised by a cost model: per
// condition it still evaluates the three restructuring scenarios of
// Section 4.3, but scores each scenario with the supplied model. GreedyPlan
// is this function under SCost{}.
func GreedyPlanWithCost(t0 *ftree.T, conds []Condition, model CostModel) (PlanResult, error) {
	cur := t0.Clone()
	var all fplanOps
	cost := model.TreeCost(cur)
	explored := 0
	for {
		rem := pending(cur, conds)
		if len(rem) == 0 {
			break
		}
		bestCost := -1.0
		var bestOps fplanOps
		for _, c := range rem {
			ops, s, err := bestScenarioWithCost(cur, c, model)
			if err != nil {
				return PlanResult{}, err
			}
			explored++
			if bestCost < 0 || s < bestCost || (s == bestCost && len(ops) < len(bestOps)) {
				bestCost, bestOps = s, ops
			}
		}
		if bestOps == nil {
			return PlanResult{}, errNoScenario(rem)
		}
		for _, op := range bestOps {
			if err := op.ApplyTree(cur); err != nil {
				return PlanResult{}, err
			}
			cost = model.Combine(cost, model.TreeCost(cur))
		}
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

// bestScenarioWithCost returns the cheapest applicable scenario for one
// condition under the cost model, including the closing selection operator;
// ties prefer fewer operators.
func bestScenarioWithCost(t *ftree.T, c Condition, model CostModel) (fplanOps, float64, error) {
	cands := scenarioCandidates(t, c)
	if len(cands) == 0 {
		return nil, 0, errNoScenario([]Condition{c})
	}
	bestS := -1.0
	var best fplanOps
	for _, cd := range cands {
		s, err := simulateCost(t, cd, model)
		if err != nil {
			return nil, 0, err
		}
		if bestS < 0 || s < bestS || (s == bestS && len(cd) < len(best)) {
			bestS, best = s, cd
		}
	}
	return best, bestS, nil
}

// simulateCost applies ops to a clone and folds tree costs.
func simulateCost(t *ftree.T, ops fplanOps, model CostModel) (float64, error) {
	w := t.Clone()
	cost := model.TreeCost(w)
	for _, op := range ops {
		if err := op.ApplyTree(w); err != nil {
			return 0, err
		}
		cost = model.Combine(cost, model.TreeCost(w))
	}
	return cost, nil
}
