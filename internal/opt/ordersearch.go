// Order-constrained f-tree search. Enumeration of a factorised
// representation streams in pre-order-lexicographic order, so an ORDER BY is
// free exactly when its key classes label the first pre-order nodes. Root and
// sibling arrangement (frep.ResolveOrder) gets there when the optimal tree
// already has the right shape; OptimalFTreeOrdered is the stronger lever: the same
// branch-and-bound search as OptimalFTree, with the key-class chain forced to
// the front of the pre-order walk — each key class roots the component (or
// nested sub-component) containing it, and the component holding the next key
// is placed first among its children. The result is the cheapest tree under
// s(T) among the order-compatible ones; PreferOrdered decides whether that
// cost is worth paying over the unconstrained optimum.
package opt

import (
	"errors"

	"repro/internal/ftree"
	"repro/internal/relation"
)

// ErrOrderIncompatible is returned when no f-tree of the query can stream
// the requested order: some key class is dependence-entangled with non-key
// classes that would have to precede a later key.
var ErrOrderIncompatible = errors.New("opt: requested order is incompatible with every f-tree of the query")

// OptimalFTreeOrdered returns the cheapest normalised f-tree whose pre-order
// walk starts with the given chain of class indices (the distinct ORDER BY
// key classes, in key order), together with its cost s(T). An empty chain is
// the unconstrained search.
func OptimalFTreeOrdered(classes []relation.AttrSet, rels []relation.AttrSet, chain []int, opts TreeSearchOptions) (*ftree.T, float64, error) {
	if len(chain) == 0 {
		return OptimalFTree(classes, rels, opts)
	}
	ts, err := newTreeSearch(classes, rels, opts)
	if err != nil {
		return nil, 0, err
	}
	return ts.orderedForest(chain)
}

// orderedForest assembles the forest with the key-class chain forced to the
// front of the pre-order walk; sub-components off the chain are solved by
// solveComponent (exhaustive or greedy per ts.greedy).
func (ts *treeSearch) orderedForest(chain []int) (*ftree.T, float64, error) {
	comps := ts.components(ts.allClasses())
	var roots []*ftree.Node
	var worst float64
	ci := 0
	for ci < len(chain) {
		// The component holding the next key class becomes the next root,
		// rooted at that class.
		found := -1
		for i, comp := range comps {
			if comp&(1<<uint(chain[ci])) != 0 {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, 0, ErrOrderIncompatible
		}
		node, s, next, err := ts.solveChain(comps[found], 0, chain, ci)
		if err != nil {
			return nil, 0, err
		}
		roots = append(roots, node)
		if s > worst {
			worst = s
		}
		comps = append(comps[:found], comps[found+1:]...)
		ci = next
	}
	for _, comp := range comps {
		node, s, err := ts.solveBounded(comp, 0)
		if err != nil {
			return nil, 0, err
		}
		roots = append(roots, node)
		if s > worst {
			worst = s
		}
	}
	return ftree.New(roots, ts.rels), worst, nil
}

// solveChain optimises the component comp rooted at the forced class
// chain[ci], keeping the remaining chain classes at the front of the
// pre-order walk. It returns the subtree, its path cost, and the index of
// the first chain class it did not consume (that class, if any, must start a
// fresh root — only legal because this subtree then is a bare chain).
func (ts *treeSearch) solveChain(comp uint64, pathBits uint64, chain []int, ci int) (*ftree.Node, float64, int, error) {
	ts.explored++
	if ts.explored > ts.budget {
		return nil, 0, 0, ErrBudget
	}
	c := chain[ci]
	bit := uint64(1) << uint(c)
	if comp&bit == 0 {
		return nil, 0, 0, ErrOrderIncompatible
	}
	newPath := pathBits | bit
	cost := ts.cover(newPath)
	if cost >= ts.bound {
		return nil, 0, 0, ErrNoCheaper
	}
	rest := comp &^ bit
	subs := ts.components(rest)
	next := ci + 1

	var children []*ftree.Node
	if next < len(chain) {
		nbit := uint64(1) << uint(chain[next])
		chainSub := -1
		for i, sub := range subs {
			if sub&nbit != 0 {
				chainSub = i
				break
			}
		}
		if chainSub < 0 {
			// The next key continues at root level; everything of this
			// component would precede it in pre-order, so the component must
			// be exhausted by the chain so far.
			if rest != 0 {
				return nil, 0, 0, ErrOrderIncompatible
			}
			return ftree.NewNode(ts.classes[c].Sorted()...), cost, next, nil
		}
		node, s, n2, err := ts.solveChain(subs[chainSub], newPath, chain, next)
		if err != nil {
			return nil, 0, 0, err
		}
		// If the chain hops to a fresh root from inside this subtree, any
		// sibling sub-component here would land between the keys in
		// pre-order: only a bare chain may hop.
		if n2 < len(chain) && len(subs) > 1 {
			return nil, 0, 0, ErrOrderIncompatible
		}
		children = append(children, node)
		if s > cost {
			cost = s
		}
		next = n2
		subs = append(subs[:chainSub], subs[chainSub+1:]...)
	}
	for _, sub := range subs {
		node, s, err := ts.solveBounded(sub, newPath)
		if err != nil {
			return nil, 0, 0, err
		}
		children = append(children, node)
		if s > cost {
			cost = s
		}
	}
	return ftree.NewNode(ts.classes[c].Sorted()...).Add(children...), cost, next, nil
}

// PreferOrdered decides whether an order-compatible tree should drive the
// plan given its cost against the unconstrained optimum. Equal cost always
// streams; a bounded top-k (LIMIT present) tolerates half a cover unit of
// regression, because short-circuiting after n tuples routinely repays a
// modestly larger representation; an unbounded scan never trades asymptotic
// build size for sort avoidance.
func PreferOrdered(optCost, ordCost float64, limited bool) bool {
	const eps = 1e-9
	if ordCost <= optCost+eps {
		return true
	}
	if limited {
		return ordCost <= optCost+0.5+eps
	}
	return false
}
