package fdb

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fplan"
	"repro/internal/frep"
	"repro/internal/relation"
)

// Clause is one element of a query: relation list, equality, constant (or
// parameterised) selection, projection, grouping, aggregation or a retrieval
// clause (OrderBy, Offset, Limit, Distinct). Clauses are built with From,
// Eq, Cmp, Project, GroupBy, Agg and the retrieval constructors and compiled
// by Query, QueryAgg, Prepare and Result.Where (and so Join).
type Clause interface{ apply(*spec) error }

// specMode says which clause kinds a compilation site accepts.
type specMode int

const (
	modeQuery specMode = iota // Query / Prepare: all clauses
	modeWhere                 // Result.Where / Result.Join: no From, Param, GroupBy or Agg
)

// spec is the compiled clause list, before binding to a database.
type spec struct {
	mode    specMode
	from    []string
	eqs     []core.Equality
	sels    []selSpec
	project []relation.Attribute
	groupBy []relation.Attribute
	aggs    []frep.AggSpec
	outClauses
}

// outClauses are the clauses that shape how a finished result leaves the
// engine; a spec collects them, a compiled statement carries them, and
// DB.dress applies them (Stmt.Exec and Result.Where alike).
type outClauses struct {
	order    []frep.OrderKey // ORDER BY keys; empty: enumeration order
	offset   int             // tuples to skip
	limit    int             // result cap; -1: none
	distinct bool            // explicit set-semantics normalisation
}

// selSpec is one selection attr θ value; val is a Go constant (int, int64,
// string, relation.Value) or a ParamValue placeholder bound at Exec time.
type selSpec struct {
	attr relation.Attribute
	op   fplan.Cmp
	val  interface{}
}

// compileSpec runs every clause through its apply method — the single,
// honest compilation path. Nil clauses are rejected rather than ignored.
func compileSpec(mode specMode, clauses []Clause) (*spec, error) {
	s := &spec{mode: mode, outClauses: outClauses{limit: -1}}
	for _, c := range clauses {
		if c == nil {
			return nil, fmt.Errorf("fdb: nil clause")
		}
		if err := c.apply(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// params returns the distinct placeholder names in first-appearance order.
func (s *spec) params() []string {
	var names []string
	seen := map[string]bool{}
	for _, sel := range s.sels {
		if p, ok := sel.val.(ParamValue); ok && !seen[p.name] {
			seen[p.name] = true
			names = append(names, p.name)
		}
	}
	return names
}

type fromClause []string

func (f fromClause) apply(s *spec) error {
	if s.mode == modeWhere {
		return fmt.Errorf("fdb: From is not allowed in Where/Join (the input is the factorised result)")
	}
	s.from = append(s.from, f...)
	return nil
}

// From names the relations to join.
func From(names ...string) Clause { return fromClause(names) }

type eqClause [2]string

func (e eqClause) apply(s *spec) error {
	if e[0] == "" || e[1] == "" {
		return fmt.Errorf("fdb: Eq needs two attribute names")
	}
	s.eqs = append(s.eqs, core.Equality{A: relation.Attribute(e[0]), B: relation.Attribute(e[1])})
	return nil
}

// Eq adds the join/selection condition a = b over qualified attribute names
// ("Relation.attr").
func Eq(a, b string) Clause { return eqClause{a, b} }

// CmpOp re-exports the comparison operators for selections with constant.
type CmpOp = fplan.Cmp

// Comparison operators for Where-style constant selections.
const (
	EQ = fplan.Eq
	NE = fplan.Ne
	LT = fplan.Lt
	LE = fplan.Le
	GT = fplan.Gt
	GE = fplan.Ge
)

// ParamValue is a placeholder for a constant bound at Exec time; create it
// with Param and pass it as the value of Cmp.
type ParamValue struct{ name string }

// Param returns a named placeholder for use in Cmp:
//
//	stmt, _ := db.Prepare(..., fdb.Cmp("Orders.item", fdb.EQ, fdb.Param("item")))
//	res, _ := stmt.Exec(fdb.Arg("item", "Milk"))
//
// One compiled plan then serves every constant bound to the parameter.
func Param(name string) ParamValue { return ParamValue{name: name} }

type constClause struct {
	attr string
	op   fplan.Cmp
	val  interface{}
}

func (c constClause) apply(s *spec) error {
	if c.attr == "" {
		return fmt.Errorf("fdb: Cmp needs an attribute name")
	}
	if p, ok := c.val.(ParamValue); ok {
		if p.name == "" {
			return fmt.Errorf("fdb: Param needs a non-empty name")
		}
		if s.mode == modeWhere {
			return fmt.Errorf("fdb: parameter %q is not allowed in Where/Join; use Prepare/Exec", p.name)
		}
	}
	s.sels = append(s.sels, selSpec{attr: relation.Attribute(c.attr), op: c.op, val: c.val})
	return nil
}

// Cmp adds the selection attr θ value; value may be int, int64, string, or
// a Param placeholder bound at Exec time.
func Cmp(attr string, op CmpOp, value interface{}) Clause {
	return constClause{attr: attr, op: op, val: value}
}

type projClause []string

func (p projClause) apply(s *spec) error {
	for _, a := range p {
		if a == "" {
			return fmt.Errorf("fdb: Project needs non-empty attribute names")
		}
		s.project = append(s.project, relation.Attribute(a))
	}
	return nil
}

// Project keeps only the named attributes in the result.
func Project(attrs ...string) Clause { return projClause(attrs) }

// AggFn selects an aggregate function for Agg.
type AggFn = frep.AggFunc

// Aggregate functions for Agg clauses. Sum, Min and Max operate on the
// engine's int64 values; on dictionary-encoded string attributes Min and
// Max order by dictionary code, not lexicographically.
const (
	Count         = frep.AggCount
	Sum           = frep.AggSum
	Min           = frep.AggMin
	Max           = frep.AggMax
	CountDistinct = frep.AggCountDistinct
)

type groupByClause []string

func (g groupByClause) apply(s *spec) error {
	if s.mode == modeWhere {
		return fmt.Errorf("fdb: GroupBy is not allowed in Where/Join; use QueryAgg or Prepare+ExecAgg")
	}
	for _, a := range g {
		if a == "" {
			return fmt.Errorf("fdb: GroupBy needs non-empty attribute names")
		}
		s.groupBy = append(s.groupBy, relation.Attribute(a))
	}
	return nil
}

// GroupBy groups the aggregates of the query's Agg clauses by the named
// attributes. It requires at least one Agg clause; the result rows carry
// one group key per attribute plus one value per aggregate.
func GroupBy(attrs ...string) Clause { return groupByClause(attrs) }

type aggClause struct {
	fn   AggFn
	attr string
}

func (a aggClause) apply(s *spec) error {
	if s.mode == modeWhere {
		return fmt.Errorf("fdb: Agg is not allowed in Where/Join; use QueryAgg or Prepare+ExecAgg")
	}
	if a.fn != Count && a.attr == "" {
		return fmt.Errorf("fdb: Agg(%s) needs an attribute", a.fn)
	}
	if a.fn == Count && a.attr != "" {
		return fmt.Errorf("fdb: Agg(Count) takes no attribute (it counts result tuples); got %q", a.attr)
	}
	s.aggs = append(s.aggs, frep.AggSpec{Fn: a.fn, Attr: relation.Attribute(a.attr)})
	return nil
}

// Agg adds an aggregate to compute over the query result (or over each
// group, with GroupBy): Count, Sum, Min, Max or CountDistinct. Count takes
// attr == ""; every other function folds over the named attribute. The
// aggregates are evaluated in one pass over the factorised representation,
// never over the flat result.
func Agg(fn AggFn, attr string) Clause { return aggClause{fn: fn, attr: attr} }

// Key is one ORDER BY sort key: an attribute with a direction. Build keys
// with Asc and Desc, or pass plain attribute strings to OrderBy for the
// ascending default.
type Key struct {
	Attr string
	Desc bool
}

// Asc returns an ascending sort key for OrderBy.
func Asc(attr string) Key { return Key{Attr: attr} }

// Desc returns a descending sort key for OrderBy.
func Desc(attr string) Key { return Key{Attr: attr, Desc: true} }

type orderByClause []interface{}

func (o orderByClause) apply(s *spec) error {
	if len(o) == 0 {
		return fmt.Errorf("fdb: OrderBy needs at least one key")
	}
	if len(s.order) > 0 {
		return fmt.Errorf("fdb: OrderBy given twice")
	}
	for _, k := range o {
		switch x := k.(type) {
		case string:
			if x == "" {
				return fmt.Errorf("fdb: OrderBy needs non-empty attribute names")
			}
			s.order = append(s.order, frep.OrderKey{Attr: relation.Attribute(x)})
		case Key:
			if x.Attr == "" {
				return fmt.Errorf("fdb: OrderBy needs non-empty attribute names")
			}
			s.order = append(s.order, frep.OrderKey{Attr: relation.Attribute(x.Attr), Desc: x.Desc})
		default:
			return fmt.Errorf("fdb: OrderBy key must be a string or fdb.Key (Asc/Desc), got %T", k)
		}
	}
	return nil
}

// OrderBy sorts the result by the given keys: attribute strings (ascending)
// or Asc/Desc keys, most significant first. When the key prefix matches a
// root-to-node path of the compiled f-tree (the engine reorders and, within
// equal cost, restructures the tree to make it so), the result streams in
// order straight from the factorised representation — no sort — and Limit
// short-circuits after n tuples; otherwise retrieval falls back to a bounded
// heap (with Limit) or a full sort of the enumeration. Key values compare in
// dictionary-decoded order when the database dictionary is in use,
// numerically otherwise. Ties beyond the keys break by the remaining result
// columns ascending in stored (engine value) order — deterministic for a
// given database, though for dictionary-encoded columns that is insertion
// order, not alphabetical; name a column as a key to sort it decoded.
func OrderBy(keys ...interface{}) Clause { return orderByClause(keys) }

type limitClause int

func (l limitClause) apply(s *spec) error {
	if l < 0 {
		return fmt.Errorf("fdb: Limit needs n >= 0, got %d", int(l))
	}
	if s.limit >= 0 {
		return fmt.Errorf("fdb: Limit given twice")
	}
	s.limit = int(l)
	return nil
}

// Limit caps the result at n tuples (applied after Offset). With an
// order-compatible OrderBy this is true top-k over the compressed
// representation: enumeration visits O(n) entries and stops.
func Limit(n int) Clause { return limitClause(n) }

type offsetClause int

func (o offsetClause) apply(s *spec) error {
	if o < 0 {
		return fmt.Errorf("fdb: Offset needs n >= 0, got %d", int(o))
	}
	if s.offset > 0 {
		return fmt.Errorf("fdb: Offset given twice")
	}
	s.offset = int(o)
	return nil
}

// Offset skips the first n tuples of the (ordered) result.
func Offset(n int) Clause { return offsetClause(n) }

type distinctClause struct{}

func (distinctClause) apply(s *spec) error {
	if s.distinct {
		return fmt.Errorf("fdb: Distinct given twice")
	}
	s.distinct = true
	return nil
}

// Distinct makes the set semantics of the result explicit: after projection,
// duplicate-representing unions are deduplicated in place on the factorised
// form, never by hashing flat tuples. The engine's projection already
// produces set results, so Distinct is a (verified) no-op on every query —
// it exists so queries can state the requirement and so externally-built
// representations normalise.
func Distinct() Clause { return distinctClause{} }
