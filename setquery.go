package fdb

import (
	"fmt"

	"repro/internal/frep"
)

// SetExpr is a set-algebra query expression: a leaf select-project-join
// query (Sub) or a set operation over two sub-expressions. Build it with
// Sub, Union, UnionAll, Except and Intersect and run it with DB.QuerySet:
//
//	res, err := db.QuerySet(
//	    fdb.Union(
//	        fdb.Sub(fdb.From("Orders"), fdb.Cmp("Orders.qty", fdb.GE, 10)),
//	        fdb.Sub(fdb.From("Orders"), fdb.Cmp("Orders.item", fdb.EQ, "Milk")),
//	    ),
//	    fdb.OrderBy("Orders.oid"), fdb.Limit(5),
//	)
//
// Every leaf compiles through the plan cache like a standalone Query; the
// set operations themselves run natively on the encoded representations.
type SetExpr struct {
	op      setExprOp
	l, r    *SetExpr
	clauses []Clause
	err     error // deferred construction error, reported by QuerySet
}

type setExprOp int

const (
	setLeaf setExprOp = iota
	setUnion
	setUnionAll
	setExcept
	setIntersect
)

func (op setExprOp) String() string {
	switch op {
	case setUnion:
		return "Union"
	case setUnionAll:
		return "UnionAll"
	case setExcept:
		return "Except"
	case setIntersect:
		return "Intersect"
	}
	return "Sub"
}

// Sub wraps one select-project-join query as a set-expression leaf. The
// clauses are the ones Query accepts minus retrieval and aggregation:
// OrderBy, Limit, Offset and Distinct apply to the combined result (pass
// them to QuerySet), aggregates have no set-algebra reading.
func Sub(clauses ...Clause) *SetExpr { return &SetExpr{op: setLeaf, clauses: clauses} }

// Union combines two set expressions with set union.
func Union(a, b *SetExpr) *SetExpr { return newSetExpr(setUnion, a, b) }

// UnionAll combines two set expressions with bag union: duplicates across
// the operands are preserved in the result (Distinct restores set
// semantics).
func UnionAll(a, b *SetExpr) *SetExpr { return newSetExpr(setUnionAll, a, b) }

// Except combines two set expressions with set difference (a minus b).
func Except(a, b *SetExpr) *SetExpr { return newSetExpr(setExcept, a, b) }

// Intersect combines two set expressions with set intersection.
func Intersect(a, b *SetExpr) *SetExpr { return newSetExpr(setIntersect, a, b) }

func newSetExpr(op setExprOp, a, b *SetExpr) *SetExpr {
	e := &SetExpr{op: op, l: a, r: b}
	if a == nil || b == nil {
		e.err = fmt.Errorf("fdb: %s needs two sub-expressions", op)
	}
	return e
}

// QuerySet compiles and runs a set-algebra expression. Each leaf query runs
// through the plan cache exactly like Query (repeating the same QuerySet
// re-uses every leg's compiled plan and memoised encoding); the set
// operations combine the leaves' factorised results natively on the encoded
// representations. The trailing clauses order, clip or normalise the final
// result: only OrderBy, Limit, Offset and Distinct are accepted there.
func (db *DB) QuerySet(e *SetExpr, clauses ...Clause) (*Result, error) {
	if e == nil {
		return nil, fmt.Errorf("fdb: QuerySet needs a set expression")
	}
	s, err := compileSpec(modeQuery, clauses)
	if err != nil {
		return nil, err
	}
	if len(s.from) > 0 || len(s.eqs) > 0 || len(s.sels) > 0 || s.project != nil ||
		len(s.aggs) > 0 || len(s.groupBy) > 0 {
		return nil, fmt.Errorf("fdb: QuerySet trailing clauses may only be OrderBy, Limit, Offset or Distinct; query clauses belong in the Sub legs")
	}
	enc, err := db.evalSetExpr(e)
	if err != nil {
		return nil, err
	}
	if err := checkOrderKeys(s.order, enc.Schema()); err != nil {
		return nil, err
	}
	return db.dress(enc, s.outClauses)
}

// evalSetExpr evaluates the expression tree bottom-up: leaves through the
// cached-statement path, inner nodes through the native frep merges.
func (db *DB) evalSetExpr(e *SetExpr) (*frep.Enc, error) {
	if e.err != nil {
		return nil, e.err
	}
	if e.op == setLeaf {
		s, err := compileSpec(modeQuery, e.clauses)
		if err != nil {
			return nil, err
		}
		if len(s.aggs) > 0 || len(s.groupBy) > 0 {
			return nil, fmt.Errorf("fdb: aggregates are not allowed in a Sub leg")
		}
		if len(s.order) > 0 || s.limit >= 0 || s.offset > 0 || s.distinct {
			return nil, fmt.Errorf("fdb: OrderBy/Limit/Offset/Distinct apply to the combined result; pass them to QuerySet, not a Sub leg")
		}
		if err := s.noParams(); err != nil {
			return nil, err
		}
		st, err := db.cachedStmt(s)
		if err != nil {
			return nil, err
		}
		res, err := st.Exec()
		if err != nil {
			return nil, err
		}
		return res.enc, nil
	}
	l, err := db.evalSetExpr(e.l)
	if err != nil {
		return nil, err
	}
	r, err := db.evalSetExpr(e.r)
	if err != nil {
		return nil, err
	}
	switch e.op {
	case setUnion:
		return frep.SetUnionEnc(l, r)
	case setUnionAll:
		return frep.BagUnionEnc(l, r)
	case setExcept:
		return frep.ExceptEnc(l, r)
	case setIntersect:
		return frep.IntersectEnc(l, r)
	}
	return nil, fmt.Errorf("fdb: unknown set operation %d", e.op)
}
