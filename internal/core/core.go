// Package core defines the select-project-join query model shared by the
// FDB engine, its optimisers and the relational baselines: queries of the
// form π_P σ_φ (R₁ × … × R_n) with φ a conjunction of attribute equalities
// and comparisons with constants (Section 2, "F-trees of a query").
//
// It also provides the attribute equivalence classes induced by a query's
// equalities, and a reference nested-loop evaluator used as ground truth by
// tests.
package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/fplan"
	"repro/internal/relation"
)

// Equality is one equi-join / equality selection condition A = B.
type Equality struct {
	A, B relation.Attribute
}

// ConstSel is one comparison with a constant, A θ c.
type ConstSel struct {
	A  relation.Attribute
	Op fplan.Cmp
	C  relation.Value
}

// Query is a select-project-join query over a list of relations with
// pairwise disjoint schemas. A nil Projection keeps all attributes.
type Query struct {
	Relations  []*relation.Relation
	Equalities []Equality
	Selections []ConstSel
	Projection []relation.Attribute
}

// Validate checks that schemas are disjoint and every referenced attribute
// exists.
func (q *Query) Validate() error {
	seen := relation.AttrSet{}
	for _, r := range q.Relations {
		if err := r.Schema.Validate(); err != nil {
			return err
		}
		for _, a := range r.Schema {
			if seen.Has(a) {
				return fmt.Errorf("core: attribute %q appears in two relations", a)
			}
			seen.Add(a)
		}
	}
	for _, e := range q.Equalities {
		if !seen.Has(e.A) || !seen.Has(e.B) {
			return fmt.Errorf("core: equality %s=%s references unknown attribute", e.A, e.B)
		}
	}
	for _, s := range q.Selections {
		if !seen.Has(s.A) {
			return fmt.Errorf("core: selection on unknown attribute %q", s.A)
		}
	}
	for _, a := range q.Projection {
		if !seen.Has(a) {
			return fmt.Errorf("core: projection of unknown attribute %q", a)
		}
	}
	return nil
}

// Fingerprint returns a canonical, injective encoding of the query's
// structure: relation names with their schemas, equalities, constant
// selections and the projection. Tuple data is NOT part of the fingerprint
// — two queries over the same catalogue fingerprint equally regardless of
// current contents, which is what makes it usable as a plan-cache key
// (cache owners must track data versions separately).
//
// The encoding is canonical: relations are sorted by name, each equality is
// ordered A ≤ B and the equality and selection lists are sorted, so
// syntactic permutations of one query share a fingerprint. The projection
// keeps its order (it is part of the requested output).
func (q *Query) Fingerprint() string {
	var b strings.Builder
	rels := make([]string, len(q.Relations))
	for i, r := range q.Relations {
		var rb strings.Builder
		fmt.Fprintf(&rb, "%q(", r.Name)
		for j, a := range r.Schema {
			if j > 0 {
				rb.WriteByte(',')
			}
			fmt.Fprintf(&rb, "%q", string(a))
		}
		rb.WriteByte(')')
		rels[i] = rb.String()
	}
	sort.Strings(rels)
	b.WriteString("R:")
	b.WriteString(strings.Join(rels, ";"))
	eqs := make([]string, len(q.Equalities))
	for i, e := range q.Equalities {
		a, bb := e.A, e.B
		if bb < a {
			a, bb = bb, a
		}
		eqs[i] = fmt.Sprintf("%q=%q", string(a), string(bb))
	}
	sort.Strings(eqs)
	b.WriteString("|E:")
	b.WriteString(strings.Join(eqs, ";"))
	sels := make([]string, len(q.Selections))
	for i, s := range q.Selections {
		sels[i] = fmt.Sprintf("%q%s%d", string(s.A), s.Op, int64(s.C))
	}
	sort.Strings(sels)
	b.WriteString("|S:")
	b.WriteString(strings.Join(sels, ";"))
	b.WriteString("|P:")
	if q.Projection != nil {
		parts := make([]string, len(q.Projection))
		for i, a := range q.Projection {
			parts[i] = fmt.Sprintf("%q", string(a))
		}
		b.WriteString(strings.Join(parts, ";"))
	} else {
		b.WriteString("*")
	}
	return b.String()
}

// Attributes returns all attributes of the query's relations, in relation
// then schema order.
func (q *Query) Attributes() []relation.Attribute {
	var out []relation.Attribute
	for _, r := range q.Relations {
		out = append(out, r.Schema...)
	}
	return out
}

// Schemas returns the relation schemas as attribute sets — the hyperedges
// used for dependency sets and for s(T).
func (q *Query) Schemas() []relation.AttrSet {
	out := make([]relation.AttrSet, len(q.Relations))
	for i, r := range q.Relations {
		out[i] = relation.NewAttrSet(r.Schema...)
	}
	return out
}

// Classes returns the attribute equivalence classes induced by the query's
// equalities (the node labels of any f-tree of the query), each sorted, in
// a deterministic order.
func (q *Query) Classes() []relation.AttrSet {
	attrs := q.Attributes()
	parent := map[relation.Attribute]relation.Attribute{}
	var find func(a relation.Attribute) relation.Attribute
	find = func(a relation.Attribute) relation.Attribute {
		if parent[a] == a {
			return a
		}
		r := find(parent[a])
		parent[a] = r
		return r
	}
	for _, a := range attrs {
		parent[a] = a
	}
	for _, e := range q.Equalities {
		ra, rb := find(e.A), find(e.B)
		if ra != rb {
			parent[rb] = ra
		}
	}
	groups := map[relation.Attribute]relation.AttrSet{}
	var order []relation.Attribute
	for _, a := range attrs {
		r := find(a)
		if groups[r] == nil {
			groups[r] = relation.AttrSet{}
			order = append(order, r)
		}
		groups[r].Add(a)
	}
	out := make([]relation.AttrSet, 0, len(order))
	for _, r := range order {
		out = append(out, groups[r])
	}
	return out
}

// EvaluateFlat computes the query result by nested-loop product, selection
// and projection — the reference semantics used as ground truth in tests
// and by the size accounting of the experiments. Use internal/rdb for
// realistic flat evaluation.
func (q *Query) EvaluateFlat() (*relation.Relation, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(q.Relations) == 0 {
		return nil, fmt.Errorf("core: query has no relations")
	}
	cur := q.Relations[0].Clone()
	for _, r := range q.Relations[1:] {
		cur = cur.Product(r)
	}
	idx := func(a relation.Attribute) int { return cur.Schema.Index(a) }
	out := cur.Select(func(t relation.Tuple) bool {
		for _, e := range q.Equalities {
			if t[idx(e.A)] != t[idx(e.B)] {
				return false
			}
		}
		for _, s := range q.Selections {
			if !s.Match(t[idx(s.A)]) {
				return false
			}
		}
		return true
	})
	if q.Projection != nil {
		out = out.Project(q.Projection)
	}
	out.Dedup()
	out.Name = "result"
	return out, nil
}

// Match reports whether value v satisfies the selection.
func (s ConstSel) Match(v relation.Value) bool { return s.Op.Eval(v, s.C) }
