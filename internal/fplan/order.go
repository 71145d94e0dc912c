// Order properties of f-trees. Enumeration of an f-representation is
// lexicographic over the pre-order node sequence of its tree, so an ORDER BY
// whose keys label the first pre-order nodes (in key order) is answered by
// streaming — no sorting, and LIMIT short-circuits. Sibling and root order
// carry no factorisation semantics (f-trees are unordered forests), which
// makes them a free lever: ReorderForOrder permutes them so the key nodes
// move to the front of the pre-order walk whenever the tree shape allows it.
package fplan

import (
	"repro/internal/frep"
	"repro/internal/ftree"
)

// allConstNode reports whether every attribute of n is bound to a constant
// (such nodes hold at most one entry per union and never perturb order).
func allConstNode(t *ftree.T, n *ftree.Node) bool {
	for _, a := range n.Attrs {
		if !t.Consts.Has(a) {
			return false
		}
	}
	return true
}

// preorder returns the tree's nodes in pre-order.
func preorder(t *ftree.T) []*ftree.Node {
	var out []*ftree.Node
	var walk func(n *ftree.Node)
	walk = func(n *ftree.Node) {
		out = append(out, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range t.Roots {
		walk(r)
	}
	return out
}

// OrderCompatible reports whether the ORDER BY keys are a structural
// property of t as it stands: walking keys in order, each key's node is the
// next pre-order node (constant nodes are skipped, repeated nodes are
// tie-free). The data-level twin is frep.ResolveOrder.
func OrderCompatible(t *ftree.T, keys []frep.OrderKey) bool {
	nodes := preorder(t)
	idx := map[*ftree.Node]int{}
	for i, n := range nodes {
		idx[n] = i
	}
	next := 0
	for _, k := range keys {
		n := t.NodeOf(k.Attr)
		if n == nil || t.Hidden.Has(k.Attr) {
			return false
		}
		ni := idx[n]
		if allConstNode(t, n) || ni < next {
			continue
		}
		for next < ni && allConstNode(t, nodes[next]) {
			next++
		}
		if next != ni {
			return false
		}
		next++
	}
	return true
}

// ReorderForOrder permutes t's root and sibling order in place so that the
// ORDER BY keys become a structural property (OrderCompatible), and reports
// whether it succeeded. Only orderings are touched — never the shape — so
// the factorisation over t is unchanged up to column layout and a built
// representation can follow with frep.(*Enc).Reindex. It fails when a key
// node is separated from the previous one by a non-constant node, or when a
// root hop would enumerate unfinished subtrees first; those cases need a
// genuinely different tree (opt.OptimalFTreeOrdered) or the sort fallback.
func ReorderForOrder(t *ftree.T, keys []frep.OrderKey) bool {
	var chain []*ftree.Node
	seen := map[*ftree.Node]bool{}
	for _, k := range keys {
		n := t.NodeOf(k.Attr)
		if n == nil || t.Hidden.Has(k.Attr) {
			return false
		}
		if allConstNode(t, n) || seen[n] {
			continue
		}
		seen[n] = true
		chain = append(chain, n)
	}
	// constPath finds a descent from `from` to `to` whose intermediate nodes
	// are all constant: those are free to stand between consecutive keys.
	var constPath func(from, to *ftree.Node) []*ftree.Node
	constPath = func(from, to *ftree.Node) []*ftree.Node {
		for _, c := range from.Children {
			if c == to {
				return []*ftree.Node{to}
			}
			if allConstNode(t, c) {
				if sub := constPath(c, to); sub != nil {
					return append([]*ftree.Node{c}, sub...)
				}
			}
		}
		return nil
	}
	rootPos := 0
	var path []*ftree.Node
	// taken[p] counts p's leading children already pinned by the walk: the
	// next key placed under p slots in right after them.
	taken := map[*ftree.Node]int{}
	moveChildTo := func(p *ftree.Node, c *ftree.Node, pos int) {
		for i, x := range p.Children {
			if x == c {
				copy(p.Children[pos+1:i+1], p.Children[pos:i])
				p.Children[pos] = c
				return
			}
		}
	}
	// pin moves the chain head..n into the leading child slots along p and
	// extends the walk path.
	pin := func(parent *ftree.Node, p []*ftree.Node) {
		for i, node := range p {
			pos := taken[parent]
			moveChildTo(parent, node, pos)
			taken[parent] = pos + 1
			parent = p[i]
		}
		path = append(path, p...)
	}
	placeAtRoot := func(n *ftree.Node) bool {
		for ri := rootPos; ri < len(t.Roots); ri++ {
			r := t.Roots[ri]
			var p []*ftree.Node
			if r == n {
				p = []*ftree.Node{n}
			} else if allConstNode(t, r) {
				if sub := constPath(r, n); sub != nil {
					p = append([]*ftree.Node{r}, sub...)
				}
			}
			if p == nil {
				continue
			}
			copy(t.Roots[rootPos+1:ri+1], t.Roots[rootPos:ri])
			t.Roots[rootPos] = r
			rootPos++
			path = p[:1]
			pin(p[0], p[1:])
			return true
		}
		return false
	}
	for ci, n := range chain {
		if ci == 0 {
			if !placeAtRoot(n) {
				return false
			}
			continue
		}
		cur := path[len(path)-1]
		if p := constPath(cur, n); p != nil {
			pin(cur, p)
			continue
		}
		// cur's subtree must be finished before pre-order can continue
		// elsewhere; any child of cur would precede the next key.
		if len(cur.Children) > 0 {
			return false
		}
		// Climb to the nearest ancestor with children beyond the pinned
		// ones — pre-order continues with its next child; every ancestor
		// passed on the way up must be exhausted or its leftover children
		// would come first.
		hopped := false
		for len(path) > 1 {
			path = path[:len(path)-1]
			anc := path[len(path)-1]
			if len(anc.Children) == taken[anc] {
				continue // exhausted; keep climbing
			}
			// n (through const nodes) must be one of the remaining children.
			for _, c := range anc.Children[taken[anc]:] {
				var p []*ftree.Node
				if c == n {
					p = []*ftree.Node{n}
				} else if allConstNode(t, c) {
					if sub := constPath(c, n); sub != nil {
						p = append([]*ftree.Node{c}, sub...)
					}
				}
				if p != nil {
					pin(anc, p)
					hopped = true
					break
				}
			}
			if !hopped {
				return false // the ancestor's next child cannot be the key
			}
			break
		}
		if hopped {
			continue
		}
		// The whole root tree is finished: hop to a fresh root.
		if !placeAtRoot(n) {
			return false
		}
	}
	return true
}

// Distinct is δ: the explicit set-semantics normalisation. Projection in
// this engine already removes hidden-node multiplicity, so on any
// engine-produced representation Distinct is the identity; it merges
// duplicate-valued union entries (unioning their children recursively) so
// the guarantee holds for any input and DISTINCT queries state it
// explicitly.
type Distinct struct{}

func (Distinct) String() string { return "δ" }

// ApplyTree implements Op: δ never changes the schema.
func (Distinct) ApplyTree(t *ftree.T) error { return nil }
