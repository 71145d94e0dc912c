package store

import (
	"repro/internal/ftree"
	"repro/internal/relation"
)

// F-tree serialisation. A tree is written as its pre-order node walk (attrs
// plus child count per node, which reconstructs the exact shape frep's
// pre-order span list depends on), followed by the Rels and Deps hyperedge
// sets and the Hidden/Consts markers. Attribute sets are written sorted so
// encoding a tree is deterministic.

func encodeAttrSet(e *encoder, s relation.AttrSet) {
	attrs := s.Sorted()
	e.u32(uint32(len(attrs)))
	for _, a := range attrs {
		e.str(string(a))
	}
}

func decodeAttrSet(d *decoder, what string) (relation.AttrSet, error) {
	n, err := d.count(what+" attr", maxNodes, 4)
	if err != nil {
		return nil, err
	}
	out := make(relation.AttrSet, n)
	for i := 0; i < n; i++ {
		a, err := d.str(what + " attr")
		if err != nil {
			return nil, err
		}
		out.Add(relation.Attribute(a))
	}
	return out, nil
}

func encodeTree(e *encoder, t *ftree.T) {
	var count func(n *ftree.Node) int
	count = func(n *ftree.Node) int {
		total := 1
		for _, c := range n.Children {
			total += count(c)
		}
		return total
	}
	total := 0
	for _, r := range t.Roots {
		total += count(r)
	}
	e.u32(uint32(total))
	e.u32(uint32(len(t.Roots)))
	var walk func(n *ftree.Node)
	walk = func(n *ftree.Node) {
		e.u32(uint32(len(n.Attrs)))
		for _, a := range n.Attrs {
			e.str(string(a))
		}
		e.u32(uint32(len(n.Children)))
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range t.Roots {
		walk(r)
	}
	e.u32(uint32(len(t.Rels)))
	for _, s := range t.Rels {
		encodeAttrSet(e, s)
	}
	e.u32(uint32(len(t.Deps)))
	for _, s := range t.Deps {
		encodeAttrSet(e, s)
	}
	encodeAttrSet(e, t.Hidden)
	encodeAttrSet(e, t.Consts)
}

// TreeKey returns t's encoding as a self-delimiting string, equal for two
// trees only when their shape, sibling order, Rels, Deps and markers are.
func TreeKey(t *ftree.T) string {
	var e encoder
	encodeTree(&e, t)
	return string(e.b)
}

// decodeTree reconstructs an f-tree, validating the node budget, nesting
// depth and (via ftree.Validate) the structural and path-constraint
// invariants before returning it.
func decodeTree(d *decoder) (*ftree.T, error) {
	total, err := d.count("tree node", maxNodes, 8)
	if err != nil {
		return nil, err
	}
	nRoots, err := d.count("tree root", maxNodes, 8)
	if err != nil {
		return nil, err
	}
	decoded := 0
	var node func(depth int) (*ftree.Node, error)
	node = func(depth int) (*ftree.Node, error) {
		if depth > maxTreeDepth {
			return nil, badf("tree nesting exceeds depth cap %d", maxTreeDepth)
		}
		if decoded++; decoded > total {
			return nil, badf("tree has more nodes than its declared count %d", total)
		}
		nAttrs, err := d.count("tree node attr", maxArity, 4)
		if err != nil {
			return nil, err
		}
		attrs := make([]relation.Attribute, nAttrs)
		for i := range attrs {
			a, err := d.str("tree node attr")
			if err != nil {
				return nil, err
			}
			attrs[i] = relation.Attribute(a)
		}
		n := ftree.NewNode(attrs...)
		nKids, err := d.count("tree child", maxNodes, 8)
		if err != nil {
			return nil, err
		}
		for i := 0; i < nKids; i++ {
			c, err := node(depth + 1)
			if err != nil {
				return nil, err
			}
			n.Add(c)
		}
		return n, nil
	}
	roots := make([]*ftree.Node, nRoots)
	for i := range roots {
		if roots[i], err = node(1); err != nil {
			return nil, err
		}
	}
	if decoded != total {
		return nil, badf("tree declared %d nodes but encodes %d", total, decoded)
	}
	nRels, err := d.count("tree rel", maxRelations, 4)
	if err != nil {
		return nil, err
	}
	rels := make([]relation.AttrSet, nRels)
	for i := range rels {
		if rels[i], err = decodeAttrSet(d, "tree rel"); err != nil {
			return nil, err
		}
	}
	nDeps, err := d.count("tree dep", maxRelations, 4)
	if err != nil {
		return nil, err
	}
	deps := make([]relation.AttrSet, nDeps)
	for i := range deps {
		if deps[i], err = decodeAttrSet(d, "tree dep"); err != nil {
			return nil, err
		}
	}
	hidden, err := decodeAttrSet(d, "tree hidden")
	if err != nil {
		return nil, err
	}
	consts, err := decodeAttrSet(d, "tree const")
	if err != nil {
		return nil, err
	}
	t := &ftree.T{Roots: roots, Rels: rels, Deps: deps, Hidden: hidden, Consts: consts}
	if err := t.Validate(); err != nil {
		return nil, badf("invalid stored f-tree: %v", err)
	}
	return t, nil
}
