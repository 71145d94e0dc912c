// Package ftree implements factorisation trees (f-trees, Section 2 of the
// paper): unordered rooted forests whose nodes are labelled by equivalence
// classes of attributes. An f-tree is the schema of a factorised
// representation; it records the nesting structure (grouping hierarchy), the
// equality classes, and — through dependency sets — which attributes must
// stay on a common root-to-leaf path (the path constraint, Proposition 1).
//
// The package provides the static side of every f-plan operator (push-up,
// swap, merge, absorb, projection marking), normalisation, canonical forms,
// and the cost parameter s(T): the maximum fractional edge cover number of
// any root-to-leaf path, computed with the simplex solver.
package ftree

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/relation"
)

// Node is one f-tree node: a non-empty equivalence class of attributes plus
// child subtrees. Nodes are identified by any of their attributes; every
// attribute labels exactly one node of a tree.
type Node struct {
	Attrs    []relation.Attribute // sorted equivalence class
	Children []*Node
}

// NewNode builds a node from the given attributes (sorted internally).
func NewNode(attrs ...relation.Attribute) *Node {
	n := &Node{Attrs: make([]relation.Attribute, len(attrs))}
	copy(n.Attrs, attrs)
	sort.Slice(n.Attrs, func(i, j int) bool { return n.Attrs[i] < n.Attrs[j] })
	return n
}

// Add appends child subtrees and returns the node for chaining.
func (n *Node) Add(children ...*Node) *Node {
	n.Children = append(n.Children, children...)
	return n
}

// HasAttr reports whether a labels this node.
func (n *Node) HasAttr(a relation.Attribute) bool {
	for _, x := range n.Attrs {
		if x == a {
			return true
		}
	}
	return false
}

// clone deep-copies the subtree.
func (n *Node) clone() *Node {
	out := &Node{Attrs: append([]relation.Attribute(nil), n.Attrs...)}
	for _, c := range n.Children {
		out.Children = append(out.Children, c.clone())
	}
	return out
}

// subtreeAttrs collects all attributes in the subtree into dst.
func (n *Node) subtreeAttrs(dst relation.AttrSet) {
	for _, a := range n.Attrs {
		dst.Add(a)
	}
	for _, c := range n.Children {
		c.subtreeAttrs(dst)
	}
}

// T is a factorisation tree (in general a forest) together with the
// dependency information needed to decide the path constraint:
//
//   - Rels: the schemas of the input relations, used as hyperedges when
//     computing s(T). These never change.
//   - Deps: dependency sets used for the path constraint and normalisation.
//     Initially the relation schemas; projections merge sets that share a
//     projected-away join attribute (Section 3.4).
//   - Hidden: attributes projected away but still present in inner nodes.
//   - Consts: attributes bound to a constant by an equality selection; they
//     carry no correlation, so dependence checks and s(T) ignore them
//     (Section 3.3, "selection with constant").
type T struct {
	Roots  []*Node
	Rels   []relation.AttrSet
	Deps   []relation.AttrSet
	Hidden relation.AttrSet
	Consts relation.AttrSet
}

// New builds an f-tree with the given roots and relation schemas. The
// dependency sets start as copies of the relation schemas.
func New(roots []*Node, rels []relation.AttrSet) *T {
	t := &T{
		Roots:  roots,
		Rels:   rels,
		Hidden: relation.AttrSet{},
		Consts: relation.AttrSet{},
	}
	for _, r := range rels {
		t.Deps = append(t.Deps, r.Clone())
	}
	return t
}

// Clone deep-copies the tree, its dependency sets and markers.
func (t *T) Clone() *T {
	out := &T{
		Hidden: t.Hidden.Clone(),
		Consts: t.Consts.Clone(),
	}
	for _, r := range t.Roots {
		out.Roots = append(out.Roots, r.clone())
	}
	for _, d := range t.Rels {
		out.Rels = append(out.Rels, d.Clone())
	}
	for _, d := range t.Deps {
		out.Deps = append(out.Deps, d.Clone())
	}
	return out
}

// Attrs returns the set of all attributes labelling nodes of t.
func (t *T) Attrs() relation.AttrSet {
	out := relation.AttrSet{}
	for _, r := range t.Roots {
		r.subtreeAttrs(out)
	}
	return out
}

// VisibleAttrs returns the attributes that are neither hidden nor constant.
func (t *T) VisibleAttrs() relation.AttrSet {
	out := relation.AttrSet{}
	for a := range t.Attrs() {
		if !t.Hidden.Has(a) {
			out.Add(a)
		}
	}
	return out
}

// NodeOf returns the node labelled by a, or nil.
func (t *T) NodeOf(a relation.Attribute) *Node {
	var find func(n *Node) *Node
	find = func(n *Node) *Node {
		if n.HasAttr(a) {
			return n
		}
		for _, c := range n.Children {
			if r := find(c); r != nil {
				return r
			}
		}
		return nil
	}
	for _, r := range t.Roots {
		if n := find(r); n != nil {
			return n
		}
	}
	return nil
}

// ParentOf returns the parent of n, or nil if n is a root (or absent).
func (t *T) ParentOf(n *Node) *Node {
	var find func(p *Node) *Node
	find = func(p *Node) *Node {
		for _, c := range p.Children {
			if c == n {
				return p
			}
			if r := find(c); r != nil {
				return r
			}
		}
		return nil
	}
	for _, r := range t.Roots {
		if r == n {
			return nil
		}
		if p := find(r); p != nil {
			return p
		}
	}
	return nil
}

// PathTo returns the chain of nodes from a root down to n inclusive, or nil
// if n is not in the tree.
func (t *T) PathTo(n *Node) []*Node {
	var path []*Node
	var find func(cur *Node) bool
	find = func(cur *Node) bool {
		path = append(path, cur)
		if cur == n {
			return true
		}
		for _, c := range cur.Children {
			if find(c) {
				return true
			}
		}
		path = path[:len(path)-1]
		return false
	}
	for _, r := range t.Roots {
		path = path[:0]
		if find(r) {
			return append([]*Node(nil), path...)
		}
	}
	return nil
}

// IsAncestor reports whether anc is a strict ancestor of desc.
func (t *T) IsAncestor(anc, desc *Node) bool {
	p := t.PathTo(desc)
	for _, n := range p[:max(0, len(p)-1)] {
		if n == anc {
			return true
		}
	}
	return false
}

// active filters out constant attributes: they carry no correlation.
func (t *T) active(s relation.AttrSet) relation.AttrSet {
	out := relation.AttrSet{}
	for a := range s {
		if !t.Consts.Has(a) {
			out.Add(a)
		}
	}
	return out
}

// DependentSets reports whether attribute sets x and y are dependent: some
// dependency set contains a non-constant attribute of each.
func (t *T) DependentSets(x, y relation.AttrSet) bool {
	ax, ay := t.active(x), t.active(y)
	if len(ax) == 0 || len(ay) == 0 {
		return false
	}
	for _, d := range t.Deps {
		if d.Intersects(ax) && d.Intersects(ay) {
			return true
		}
	}
	return false
}

// SubtreeDependsOnNode reports whether any attribute in the subtree rooted
// at sub is dependent on the class of node n.
func (t *T) SubtreeDependsOnNode(sub, n *Node) bool {
	subAttrs := relation.AttrSet{}
	sub.subtreeAttrs(subAttrs)
	return t.DependentSets(subAttrs, relation.NewAttrSet(n.Attrs...))
}

// Validate checks structural sanity and the path constraint: every
// dependency set's non-constant attributes label nodes on one root-to-leaf
// path.
func (t *T) Validate() error {
	seen := relation.AttrSet{}
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if len(n.Attrs) == 0 {
			return fmt.Errorf("ftree: empty node label")
		}
		for _, a := range n.Attrs {
			if seen.Has(a) {
				return fmt.Errorf("ftree: attribute %q labels two nodes", a)
			}
			seen.Add(a)
		}
		for _, c := range n.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range t.Roots {
		if err := walk(r); err != nil {
			return err
		}
	}
	for _, d := range t.Deps {
		if err := t.checkDepOnPath(d); err != nil {
			return err
		}
	}
	return nil
}

// checkDepOnPath verifies a single dependency set lies on one path.
func (t *T) checkDepOnPath(d relation.AttrSet) error {
	var nodes []*Node
	seen := map[*Node]bool{}
	for a := range d {
		if t.Consts.Has(a) {
			continue
		}
		n := t.NodeOf(a)
		if n == nil {
			continue // projected-away attribute no longer in the tree
		}
		if !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	}
	if len(nodes) <= 1 {
		return nil
	}
	// All nodes must lie on the path to the deepest of them.
	deepest := nodes[0]
	deepestPath := t.PathTo(deepest)
	for _, n := range nodes[1:] {
		p := t.PathTo(n)
		if len(p) > len(deepestPath) {
			deepest, deepestPath = n, p
		}
	}
	onPath := map[*Node]bool{}
	for _, n := range deepestPath {
		onPath[n] = true
	}
	for _, n := range nodes {
		if !onPath[n] {
			return fmt.Errorf("ftree: dependency set %v violates the path constraint", d.Sorted())
		}
	}
	return nil
}

// Canonical returns a canonical string for the tree shape, labels and
// markers; two trees with the same canonical form are identical up to
// sibling order. Used as a state key by the plan-search optimiser.
func (t *T) Canonical() string {
	var node func(n *Node) string
	node = func(n *Node) string {
		var b strings.Builder
		b.WriteByte('{')
		for i, a := range n.Attrs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(string(a))
			if t.Hidden.Has(a) {
				b.WriteByte('~')
			}
			if t.Consts.Has(a) {
				b.WriteByte('!')
			}
		}
		b.WriteByte('}')
		if len(n.Children) > 0 {
			kids := make([]string, len(n.Children))
			for i, c := range n.Children {
				kids[i] = node(c)
			}
			sort.Strings(kids)
			b.WriteByte('(')
			b.WriteString(strings.Join(kids, " "))
			b.WriteByte(')')
		}
		return b.String()
	}
	roots := make([]string, len(t.Roots))
	for i, r := range t.Roots {
		roots[i] = node(r)
	}
	sort.Strings(roots)
	return strings.Join(roots, " | ")
}

// String renders the forest as an indented outline for examples and
// debugging.
func (t *T) String() string {
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		labels := make([]string, 0, len(n.Attrs))
		for _, a := range n.Attrs {
			s := string(a)
			if t.Hidden.Has(a) {
				s += "~"
			}
			if t.Consts.Has(a) {
				s += "=const"
			}
			labels = append(labels, s)
		}
		b.WriteString(strings.Join(labels, ","))
		b.WriteByte('\n')
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range t.Roots {
		walk(r, 0)
	}
	return b.String()
}
