package frep

import (
	"fmt"
	"sort"

	"repro/internal/ftree"
	"repro/internal/relation"
)

// fromRelation builds the unique f-representation of rel over t
// (Definition 2) the obvious way — group the tuples by a node's value,
// recurse into every child on each group — as a constructor for tests that
// is independent of package fbuild. The relation's schema must include
// every attribute of t and attributes of the same class must agree on every
// tuple. If rel does not factorise over t (the conditional-independence
// structure of t does not hold in the data, cf. Example 3), an error is
// returned.
func fromRelation(t *ftree.T, rel *relation.Relation) (*Enc, error) {
	for a := range t.Attrs() {
		if !rel.Schema.Contains(a) {
			return nil, fmt.Errorf("frep: tree attribute %q not in relation schema", a)
		}
	}
	r := rel.Clone()
	r.Dedup()
	if r.Cardinality() == 0 {
		return NewEmptyEnc(t), nil
	}
	b := NewEncBuilder(t)
	var emit func(n *ftree.Node, tuples []relation.Tuple) error
	emit = func(n *ftree.Node, tuples []relation.Tuple) error {
		col := r.Schema.Index(n.Attrs[0])
		for _, a := range n.Attrs[1:] {
			for _, tp := range tuples {
				if tp[r.Schema.Index(a)] != tp[col] {
					return fmt.Errorf("frep: class %v has unequal values in tuple %v", n.Attrs, tp)
				}
			}
		}
		tuples = append([]relation.Tuple(nil), tuples...)
		sort.SliceStable(tuples, func(i, j int) bool { return tuples[i][col] < tuples[j][col] })
		for lo := 0; lo < len(tuples); {
			hi := lo
			for hi < len(tuples) && tuples[hi][col] == tuples[lo][col] {
				hi++
			}
			b.Append(b.Idx(n), tuples[lo][col])
			for _, c := range n.Children {
				if err := emit(c, tuples[lo:hi]); err != nil {
					return err
				}
				b.CloseUnion(b.Idx(c))
			}
			lo = hi
		}
		return nil
	}
	for _, root := range t.Roots {
		if err := emit(root, r.Tuples); err != nil {
			return nil, err
		}
		b.CloseUnion(b.Idx(root))
	}
	e := b.Finish()
	// The grouping above always represents a superset of rel (the product
	// closure); it is exact iff the tuple counts agree.
	if e.Count() != int64(r.Cardinality()) {
		return nil, fmt.Errorf("frep: relation does not factorise over the given f-tree (represented %d tuples, relation has %d)",
			e.Count(), r.Cardinality())
	}
	return e, nil
}
