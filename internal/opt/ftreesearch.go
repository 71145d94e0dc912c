// Package opt implements FDB's query optimisers (Section 4):
//
//   - OptimalFTree finds, for a query given by its attribute equivalence
//     classes and relation schemas, a normalised f-tree of the query result
//     with minimal cost s(T) (Experiment 1);
//   - ExhaustivePlan runs the full-search optimiser: a Dijkstra-style
//     traversal of the space of normalised f-trees connected by swap, merge
//     and absorb operators, under the lexicographic objective
//     ⟨max intermediate s, final s⟩ (Section 4.2, Experiment 2);
//   - GreedyPlan implements the greedy heuristic of Section 4.3.
package opt

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/ftree"
	"repro/internal/relation"
)

// maxRels bounds the number of relations (hyperedges) a query may have;
// bitmask-based enumeration relies on it.
const maxRels = 64

// maxClasses bounds the number of attribute classes.
const maxClasses = 64

// ErrBudget is returned when a search exceeds its exploration budget.
var ErrBudget = errors.New("opt: exploration budget exceeded")

// ErrNoCheaper is returned by a search given TreeSearchOptions.Below when no
// f-tree of the query costs strictly less than that bound.
var ErrNoCheaper = errors.New("opt: no f-tree below the requested cost")

// TreeSearchOptions tunes OptimalFTree.
type TreeSearchOptions struct {
	// Budget caps the number of explored partial trees (0: default 2e6).
	Budget int
	// Below, when positive, is the cost of a tree the caller already holds:
	// the search prunes every branch that cannot get strictly below it and
	// returns ErrNoCheaper instead of a tree when nothing does. On queries
	// where the incumbent is already optimal this cuts the search to a
	// fraction of its nodes (chain-6: 86 -> 16, chain-16: 21715 -> 1050).
	Below float64
}

// treeSearch carries the enumeration state.
type treeSearch struct {
	classes   []relation.AttrSet
	rels      []relation.AttrSet
	classSig  []uint64 // per class: bitmask of relations containing it
	adj       []uint64 // per class: bitmask of dependent classes
	coverMemo map[uint64]float64
	explored  int
	budget    int
	bound     float64 // only trees strictly cheaper are of interest (+Inf: any)
	greedy    bool    // pick each root heuristically instead of searching
}

// newTreeSearch builds the shared enumeration state (relation signatures,
// dependence adjacency, cover memo) used by the exhaustive and greedy
// optimisers alike.
func newTreeSearch(classes []relation.AttrSet, rels []relation.AttrSet, opts TreeSearchOptions) (*treeSearch, error) {
	if len(rels) > maxRels {
		return nil, fmt.Errorf("opt: more than %d relations", maxRels)
	}
	if len(classes) > maxClasses {
		return nil, fmt.Errorf("opt: more than %d attribute classes", maxClasses)
	}
	ts := &treeSearch{
		classes:   classes,
		rels:      rels,
		coverMemo: map[uint64]float64{},
		budget:    opts.Budget,
		bound:     math.Inf(1),
	}
	if ts.budget == 0 {
		ts.budget = 2_000_000
	}
	if opts.Below > 0 {
		ts.bound = opts.Below
	}
	ts.classSig = make([]uint64, len(classes))
	for i, c := range classes {
		for j, r := range rels {
			if r.Intersects(c) {
				ts.classSig[i] |= 1 << uint(j)
			}
		}
	}
	ts.adj = make([]uint64, len(classes))
	for i := range classes {
		for j := range classes {
			if i != j && ts.classSig[i]&ts.classSig[j] != 0 {
				ts.adj[i] |= 1 << uint(j)
			}
		}
	}
	return ts, nil
}

// allClasses is the bitmask covering every class index.
func (ts *treeSearch) allClasses() uint64 {
	all := uint64(0)
	for i := range ts.classes {
		all |= 1 << uint(i)
	}
	return all
}

// OptimalFTree returns a normalised f-tree over the given attribute classes
// (with the relation schemas as hyperedges and dependency sets) whose cost
// s(T) is minimal, together with that cost.
func OptimalFTree(classes []relation.AttrSet, rels []relation.AttrSet, opts TreeSearchOptions) (*ftree.T, float64, error) {
	ts, err := newTreeSearch(classes, rels, opts)
	if err != nil {
		return nil, 0, err
	}
	roots, s, err := ts.solveForest(ts.allClasses(), 0)
	if err != nil {
		return nil, 0, err
	}
	t := ftree.New(roots, rels)
	return t, s, nil
}

// solveForest optimises the forest for the class set K below the classes in
// pathBits: each dependence-component becomes an independent subtree, and
// the forest cost is the max over components.
func (ts *treeSearch) solveForest(k uint64, pathBits uint64) ([]*ftree.Node, float64, error) {
	var roots []*ftree.Node
	var worst float64
	for _, comp := range ts.components(k) {
		node, s, err := ts.solveBounded(comp, pathBits)
		if err != nil {
			return nil, 0, err
		}
		roots = append(roots, node)
		if s > worst {
			worst = s
		}
	}
	return roots, worst, nil
}

// solveBounded is solveComponent for callers with no sibling root to fall
// back on: the component must beat ts.bound, so a pruned (nil) result means
// no tree of the query does.
func (ts *treeSearch) solveBounded(comp uint64, pathBits uint64) (*ftree.Node, float64, error) {
	node, s, err := ts.solveComponent(comp, pathBits, ts.bound)
	if err == nil && node == nil {
		err = ErrNoCheaper
	}
	return node, s, err
}

// components splits k into connected components of the dependence graph.
func (ts *treeSearch) components(k uint64) []uint64 {
	var out []uint64
	rest := k
	for rest != 0 {
		seed := rest & (-rest) // lowest set bit
		comp := seed
		for {
			grow := comp
			for i := 0; i < len(ts.classes); i++ {
				if comp&(1<<uint(i)) != 0 {
					grow |= ts.adj[i] & k
				}
			}
			if grow == comp {
				break
			}
			comp = grow
		}
		out = append(out, comp)
		rest &^= comp
	}
	return out
}

// solveComponent picks the root of a connected component and recurses,
// pruning branches whose path cover already reaches bound. In greedy mode
// the root is chosen heuristically instead of enumerated.
func (ts *treeSearch) solveComponent(comp uint64, pathBits uint64, bound float64) (*ftree.Node, float64, error) {
	if ts.greedy {
		return ts.greedyComponent(comp, pathBits)
	}
	ts.explored++
	if ts.explored > ts.budget {
		return nil, 0, ErrBudget
	}
	var bestNode *ftree.Node
	best := bound
	// Candidate roots, deduplicated by relation signature: classes covered
	// by exactly the same relations are interchangeable as roots.
	seen := map[uint64]bool{}
	for c := 0; c < len(ts.classes); c++ {
		bit := uint64(1) << uint(c)
		if comp&bit == 0 {
			continue
		}
		if seen[ts.classSig[c]] {
			continue
		}
		seen[ts.classSig[c]] = true
		newPath := pathBits | bit
		base := ts.cover(newPath)
		if base >= best {
			continue
		}
		rest := comp &^ bit
		cand := base
		var children []*ftree.Node
		ok := true
		for _, sub := range ts.components(rest) {
			node, s, err := ts.solveComponent(sub, newPath, best)
			if err != nil {
				if errors.Is(err, ErrBudget) {
					return nil, 0, err
				}
				ok = false
				break
			}
			if node == nil {
				ok = false // pruned: this subtree cannot beat best
				break
			}
			children = append(children, node)
			if s > cand {
				cand = s
			}
			if cand >= best {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if cand < best {
			best = cand
			bestNode = ftree.NewNode(ts.classes[c].Sorted()...).Add(children...)
		}
	}
	if bestNode == nil && math.IsInf(bound, 1) {
		return nil, 0, fmt.Errorf("opt: component unsolvable (uncoverable class?)")
	}
	return bestNode, best, nil
}

// cover computes (with memoisation) the fractional edge cover number of the
// classes in pathBits.
func (ts *treeSearch) cover(pathBits uint64) float64 {
	if v, ok := ts.coverMemo[pathBits]; ok {
		return v
	}
	var classes []relation.AttrSet
	for i := 0; i < len(ts.classes); i++ {
		if pathBits&(1<<uint(i)) != 0 {
			classes = append(classes, ts.classes[i])
		}
	}
	v := ftree.Cover(ts.rels, classes)
	ts.coverMemo[pathBits] = v
	return v
}

// canonicalClasses renders classes deterministically (handy for debugging
// and test failure messages).
func canonicalClasses(classes []relation.AttrSet) string {
	parts := make([]string, len(classes))
	for i, c := range classes {
		attrs := c.Sorted()
		ss := make([]string, len(attrs))
		for j, a := range attrs {
			ss[j] = string(a)
		}
		parts[i] = "{" + strings.Join(ss, ",") + "}"
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}
