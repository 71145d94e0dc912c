package relation

import (
	"fmt"
	"sort"
	"strings"
)

// Tuple is one row; values are positional against the owning relation's
// Schema.
type Tuple []Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Compare orders tuples lexicographically.
func (t Tuple) Compare(o Tuple) int {
	n := len(t)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		switch {
		case t[i] < o[i]:
			return -1
		case t[i] > o[i]:
			return 1
		}
	}
	switch {
	case len(t) < len(o):
		return -1
	case len(t) > len(o):
		return 1
	}
	return 0
}

// Relation is an in-memory bag of tuples with a schema. The engine treats
// relations as sets; Dedup establishes set semantics explicitly.
type Relation struct {
	Name   string
	Schema Schema
	Tuples []Tuple
}

// New creates an empty relation with the given name and schema.
func New(name string, schema Schema) *Relation {
	return &Relation{Name: name, Schema: schema.Clone()}
}

// Append adds a row. The row must match the schema arity.
func (r *Relation) Append(vals ...Value) {
	if len(vals) != len(r.Schema) {
		panic(fmt.Sprintf("relation %s: appending %d values to %d-ary schema", r.Name, len(vals), len(r.Schema)))
	}
	t := make(Tuple, len(vals))
	copy(t, vals)
	r.Tuples = append(r.Tuples, t)
}

// AppendTuple adds a row without copying.
func (r *Relation) AppendTuple(t Tuple) {
	if len(t) != len(r.Schema) {
		panic(fmt.Sprintf("relation %s: appending %d values to %d-ary schema", r.Name, len(t), len(r.Schema)))
	}
	r.Tuples = append(r.Tuples, t)
}

// Cardinality returns the number of tuples.
func (r *Relation) Cardinality() int { return len(r.Tuples) }

// Clone deep-copies the relation.
func (r *Relation) Clone() *Relation {
	out := New(r.Name, r.Schema)
	out.Tuples = make([]Tuple, len(r.Tuples))
	for i, t := range r.Tuples {
		out.Tuples[i] = t.Clone()
	}
	return out
}

// SortBy sorts tuples lexicographically by the given attribute order. Every
// attribute in order must be in the schema; attributes not listed break ties
// in schema order to make the sort total and deterministic.
func (r *Relation) SortBy(order []Attribute) {
	idx := make([]int, 0, len(order))
	for _, a := range order {
		i := r.Schema.Index(a)
		if i < 0 {
			panic(fmt.Sprintf("relation %s: sort attribute %q not in schema", r.Name, a))
		}
		idx = append(idx, i)
	}
	// Tie-break on remaining columns for determinism.
	seen := make(map[int]bool, len(idx))
	for _, i := range idx {
		seen[i] = true
	}
	for i := range r.Schema {
		if !seen[i] {
			idx = append(idx, i)
		}
	}
	// Already sorted? One read-only pass; SortBy then never writes, so
	// relations pre-sorted in this order can be shared by concurrent
	// readers (prepared-statement snapshots).
	sorted := true
scan:
	for k := 1; k < len(r.Tuples); k++ {
		ta, tb := r.Tuples[k-1], r.Tuples[k]
		for _, i := range idx {
			if ta[i] < tb[i] {
				continue scan
			}
			if ta[i] > tb[i] {
				sorted = false
				break scan
			}
		}
	}
	if sorted {
		return
	}
	sort.Slice(r.Tuples, func(a, b int) bool {
		ta, tb := r.Tuples[a], r.Tuples[b]
		for _, i := range idx {
			if ta[i] != tb[i] {
				return ta[i] < tb[i]
			}
		}
		return false
	})
}

// Sort sorts tuples lexicographically in schema order.
func (r *Relation) Sort() { r.SortBy(nil) }

// Dedup sorts the relation and removes duplicate tuples, establishing set
// semantics.
func (r *Relation) Dedup() {
	r.Sort()
	out := r.Tuples[:0]
	for i, t := range r.Tuples {
		if i == 0 || t.Compare(r.Tuples[i-1]) != 0 {
			out = append(out, t)
		}
	}
	r.Tuples = out
}

// Project returns a new relation with only the given attributes, with
// duplicates removed (set semantics).
func (r *Relation) Project(attrs []Attribute) *Relation {
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		j := r.Schema.Index(a)
		if j < 0 {
			panic(fmt.Sprintf("relation %s: project attribute %q not in schema", r.Name, a))
		}
		idx[i] = j
	}
	out := New(r.Name+"_proj", Schema(attrs))
	for _, t := range r.Tuples {
		nt := make(Tuple, len(idx))
		for i, j := range idx {
			nt[i] = t[j]
		}
		out.Tuples = append(out.Tuples, nt)
	}
	out.Dedup()
	return out
}

// Select returns a new relation with the tuples satisfying pred.
func (r *Relation) Select(pred func(Tuple) bool) *Relation {
	out := New(r.Name+"_sel", r.Schema)
	for _, t := range r.Tuples {
		if pred(t) {
			out.Tuples = append(out.Tuples, t.Clone())
		}
	}
	return out
}

// Filter is Select without copying tuple storage: the result shares the
// surviving Tuple values with r and preserves their order (so a sorted
// input stays sorted). Use it when the filtered relation is read-only, e.g.
// per-execution parameter filtering of a shared snapshot.
func (r *Relation) Filter(pred func(Tuple) bool) *Relation {
	out := New(r.Name, r.Schema)
	for _, t := range r.Tuples {
		if pred(t) {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out
}

// Product returns the Cartesian product of r and o. Schemas must be
// disjoint.
func (r *Relation) Product(o *Relation) *Relation {
	for _, a := range o.Schema {
		if r.Schema.Contains(a) {
			panic(fmt.Sprintf("relation: product schemas share attribute %q", a))
		}
	}
	sch := append(r.Schema.Clone(), o.Schema...)
	out := New(r.Name+"x"+o.Name, sch)
	for _, t1 := range r.Tuples {
		for _, t2 := range o.Tuples {
			nt := make(Tuple, 0, len(t1)+len(t2))
			nt = append(nt, t1...)
			nt = append(nt, t2...)
			out.Tuples = append(out.Tuples, nt)
		}
	}
	return out
}

// Equal reports whether the two relations hold the same set of tuples over
// equal schemas (order-insensitive; duplicates ignored).
func (r *Relation) Equal(o *Relation) bool {
	if !r.Schema.Equal(o.Schema) {
		return false
	}
	a, b := r.Clone(), o.Clone()
	a.Dedup()
	b.Dedup()
	if len(a.Tuples) != len(b.Tuples) {
		return false
	}
	for i := range a.Tuples {
		if a.Tuples[i].Compare(b.Tuples[i]) != 0 {
			return false
		}
	}
	return true
}

// String renders the relation as an aligned table, mainly for examples and
// debugging.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(", r.Name)
	for i, a := range r.Schema {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(string(a))
	}
	b.WriteString(")\n")
	for _, t := range r.Tuples {
		for i, v := range t {
			if i > 0 {
				b.WriteString("\t")
			}
			fmt.Fprintf(&b, "%d", int64(v))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// StringDict renders the relation using d to decode values.
func (r *Relation) StringDict(d *Dict) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(", r.Name)
	for i, a := range r.Schema {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(string(a))
	}
	b.WriteString(")\n")
	for _, t := range r.Tuples {
		for i, v := range t {
			if i > 0 {
				b.WriteString("\t")
			}
			b.WriteString(d.Decode(v))
		}
		b.WriteString("\n")
	}
	return b.String()
}
