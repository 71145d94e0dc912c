package fdb

import (
	"errors"
	"fmt"

	"repro/internal/ftree"
	"repro/internal/opt"
	"repro/internal/relation"
	"repro/internal/store"
)

// planBudget caps the partial trees one f-tree search may explore before the
// greedy tree stands. Sized by measurement (internal/opt on length-n chain
// joins, incumbent-bounded search as planTree runs it, one core): a search
// node costs one fractional-edge-cover LP per candidate root, so its price
// grows with the query's width — ~13 µs at 6 relations, ~37 µs at 16, ~125 µs
// at 24. Queries of up to 10 relations finish inside the budget (chain-6: 16
// nodes, 0.2 ms; chain-10: 480 nodes, 5 ms); wider ones are cut off at 512
// nodes, which bounds cold planning to ~19 ms at 16 relations and ~65 ms at
// 24, next to 0.4 s and "minutes" for the unbudgeted search.
const planBudget = 512

// costEps separates "strictly cheaper" from cover-LP rounding noise.
const costEps = 1e-9

// planTree is the planning policy — the one function that decides a
// statement's f-tree, for the free search (empty chain) and for the
// order-constrained one (chain: the ORDER BY key classes forced to the
// pre-order front) alike. The polynomial greedy tree is the incumbent; the
// exhaustive search then runs under the node budget, pruned by the
// incumbent's cost, and its tree is adopted only when strictly cheaper.
// Ties keep the greedy tree: equal cost buys nothing, and a statement's
// tree stays a function of the query alone rather than of which search
// happened to finish. Budget exhaustion is counted and keeps the
// incumbent — opt.ErrBudget never escapes; opt.ErrOrderIncompatible does
// (the caller falls back to heap-sorted retrieval). Which of the three
// endings it was is returned beside the tree, for Stmt.Explain.
func (db *DB) planTree(classes, schemas []relation.AttrSet, chain []int) (*ftree.T, float64, PlanSearch, error) {
	tr, cost, err := opt.GreedyFTreeOrdered(classes, schemas, chain)
	if err != nil {
		return nil, 0, 0, err
	}
	best, bestCost, err := opt.OptimalFTreeOrdered(classes, schemas, chain,
		opt.TreeSearchOptions{Budget: planBudget, Below: cost - costEps})
	switch {
	case err == nil:
		return best, bestCost, SearchAdopted, nil
	case errors.Is(err, opt.ErrBudget):
		db.budgetFallbacks.Add(1)
		return tr, cost, SearchCut, nil
	case !errors.Is(err, opt.ErrNoCheaper):
		return nil, 0, 0, err
	}
	return tr, cost, GreedyKept, nil
}

// fplanBudget caps the states one Where/Join f-plan search explores before the
// greedy plan stands. Measured on one core: Example 2's Q1 ⋈ Q2 settles in 115
// states of ~80 µs; at 24 nodes a state costs ~560 µs, so a miss stays < 0.6 s.
const fplanBudget = 1024

// planConds is Where's f-plan policy: the plan cached for this exact tree and
// condition list, else ExhaustivePlan under fplanBudget — or the greedy plan,
// counted in budgetFallbacks — cached as an entry naming no relation.
func (db *DB) planConds(t *ftree.T, conds []opt.Condition) (*opt.PlanResult, error) {
	key := fplanKey(t, conds)
	if ce, ok := db.cache.get(key); ok {
		return ce.fplan, nil
	}
	res, err := opt.ExhaustivePlan(t, conds, opt.PlanSearchOptions{Budget: fplanBudget})
	if errors.Is(err, opt.ErrBudget) {
		db.budgetFallbacks.Add(1)
		res, err = opt.GreedyPlan(t, conds)
	}
	if err != nil {
		return nil, err
	}
	db.cache.put(cacheEntry{key: key, fplan: &res})
	return &res, nil
}

// fplanKey is the tree's exact structure (the search breaks ties in sibling
// order and Deps, which Canonical ignores), then the conditions in order.
func fplanKey(t *ftree.T, conds []opt.Condition) string {
	return fmt.Sprintf("fplan:%s%q", store.TreeKey(t), conds)
}
