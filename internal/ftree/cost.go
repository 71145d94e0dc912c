package ftree

import (
	"math"

	"repro/internal/relation"
	"repro/internal/simplex"
)

// This file computes the cost parameter s(T) of Section 2: the maximum, over
// all root-to-leaf paths p of T, of the fractional edge cover number of the
// hypergraph whose vertices are the attribute classes on p and whose edges
// are the input relations. For any database D, f-representations over T have
// size O(|D|^{s(T)}), and this bound is tight, so s(T) drives both the
// asymptotic cost measure of f-plans (Section 4.1) and the optimisers.

// Cover computes the fractional edge cover number of the given attribute
// classes using rels as hyperedges. Classes with no non-constant attribute
// are skipped by the caller. Returns +Inf if some class cannot be covered.
func Cover(rels []relation.AttrSet, classes []relation.AttrSet) float64 {
	if len(classes) == 0 {
		return 0
	}
	// Variables: only relations that touch some class (others are 0 in any
	// optimal solution).
	var vars []int
	for i, r := range rels {
		touches := false
		for _, c := range classes {
			if r.Intersects(c) {
				touches = true
				break
			}
		}
		if touches {
			vars = append(vars, i)
		}
	}
	c := make([]float64, len(vars))
	for i := range c {
		c[i] = 1
	}
	a := make([][]float64, 0, len(classes))
	for _, cls := range classes {
		row := make([]float64, len(vars))
		any := false
		for j, ri := range vars {
			if rels[ri].Intersects(cls) {
				row[j] = 1
				any = true
			}
		}
		if !any {
			return math.Inf(1)
		}
		a = append(a, row)
	}
	b := make([]float64, len(a))
	for i := range b {
		b[i] = 1
	}
	val, _, err := simplex.Minimize(c, a, b)
	if err != nil {
		return math.Inf(1)
	}
	return val
}

// classOf returns the non-constant attributes of a node as a set, or nil if
// the node is entirely constant (such nodes are ignored by s(T), Section
// 3.3).
func (t *T) classOf(n *Node) relation.AttrSet {
	out := relation.AttrSet{}
	for _, a := range n.Attrs {
		if !t.Consts.Has(a) {
			out.Add(a)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// S returns s(T): the maximum fractional edge cover number over all
// root-to-leaf paths. Hidden (projected-away) attributes participate: this
// is the computation-cost variant s(T̂) that bounds intermediate work.
func (t *T) S() float64 {
	var best float64
	var path []relation.AttrSet
	var walk func(n *Node)
	walk = func(n *Node) {
		cls := t.classOf(n)
		if cls != nil {
			path = append(path, cls)
		}
		if len(n.Children) == 0 {
			if c := Cover(t.Rels, path); c > best {
				best = c
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
		if cls != nil {
			path = path[:len(path)-1]
		}
	}
	for _, r := range t.Roots {
		walk(r)
	}
	return best
}
