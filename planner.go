package fdb

import (
	"errors"

	"repro/internal/ftree"
	"repro/internal/opt"
	"repro/internal/relation"
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
// (the caller falls back to heap-sorted retrieval).
func (db *DB) planTree(classes, schemas []relation.AttrSet, chain []int) (*ftree.T, float64, error) {
	tr, cost, err := opt.GreedyFTreeOrdered(classes, schemas, chain)
	if err != nil {
		return nil, 0, err
	}
	best, bestCost, err := opt.OptimalFTreeOrdered(classes, schemas, chain,
		opt.TreeSearchOptions{Budget: db.planBudget, Below: cost - costEps})
	switch {
	case err == nil:
		return best, bestCost, nil
	case errors.Is(err, opt.ErrBudget):
		db.budgetFallbacks.Add(1)
	case !errors.Is(err, opt.ErrNoCheaper):
		return nil, 0, err
	}
	return tr, cost, nil
}
