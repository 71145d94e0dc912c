package fdb

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/fplan"
	"repro/internal/frep"
	"repro/internal/opt"
	"repro/internal/relation"
)

// Result is a factorised query result, carried end-to-end in the
// arena-backed columnar encoding (frep.Enc). Follow-up queries (Where, Join
// and the set operations Union, UnionAll, Except, Intersect) run directly
// on the encoded representation, using the optimisers to pick cheap
// f-plans. Where is the one way to refine a result, and the last Where
// finishes it: OrderBy, Offset, Limit and Distinct given there set how its
// tuples leave. A UnionAll result is a bag: it keeps its operands' set
// encodings side by side, and every method reads it as their bag union.
type Result struct {
	db *DB
	// The set encodings whose bag union the result is: one, or a bag's two
	// or more operands over the same visible attributes.
	parts []*frep.Enc
	// Retrieval clauses (OrderBy/Offset/Limit): the representation itself
	// stays factorised and unsorted, only the way out of it changes.
	order  []frep.OrderKey
	offset int
	limit  int // -1: no limit
	less   []frep.ValueLess
	// How the tuples leave: resolved on the first retrieval call, immutable
	// from then on, read by every enumeration surface.
	once sync.Once
	out  retrieval
}

// retrieval is the one resolved way a result's tuples leave the engine: the
// encoding to walk and its order plan when the (ordered) enumeration streams
// off the structure, the sorted rows when it cannot. Offset and Limit clip
// whichever cursor it hands out.
type retrieval struct {
	enc      *frep.Enc        // encoding walked (a sibling-reordered view when the order needed one), or whose column order rows take
	plan     *frep.EncOrder   // nil: stored order
	streamed bool             // false: rows holds the answer, sorted once
	rows     []relation.Tuple // sort fallback: the first offset+limit tuples in retrieval order
}

// cursor returns a fresh, unclipped iterator over the retrieval.
func (rt *retrieval) cursor() frep.TupleIter {
	if !rt.streamed {
		return frep.ReplayIter(rt.enc.Schema(), rt.rows)
	}
	return frep.NewEncIterator(rt.enc, rt.plan)
}

// newResult wraps set encodings in the (unordered, unlimited) result that
// is their bag union. Limit uses -1 as "none", so every construction site
// must go through here rather than a bare literal.
func newResult(db *DB, parts ...*frep.Enc) *Result {
	return &Result{db: db, parts: parts, limit: -1}
}

// set returns the result's tuples as one set encoding: a bag's operands
// folded by set union, in the first operand's column order.
func (r *Result) set() (*frep.Enc, error) {
	acc := r.parts[0]
	for _, e := range r.parts[1:] {
		var err error
		if acc, err = frep.SetUnionEnc(acc, e); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// dress finishes a fresh result with its retrieval clauses: Distinct folds
// a bag into one set (every encoding already is one), OrderBy/Offset/Limit
// set how the tuples leave.
func (r *Result) dress(out outClauses) (*Result, error) {
	if out.distinct && len(r.parts) > 1 {
		enc, err := r.set()
		if err != nil {
			return nil, err
		}
		r = newResult(r.db, enc)
	}
	r.order, r.offset, r.limit = out.order, out.offset, out.limit
	if r.ordered() {
		r.less = r.db.orderLess(r.order)
	}
	return r, nil
}

// ordered reports whether retrieval goes through the order/offset/limit
// machinery.
func (r *Result) ordered() bool { return len(r.order) > 0 || r.offset > 0 || r.limit >= 0 }

// retrieval decides, once, how the tuples leave. Without keys, and with keys
// that label the pre-order prefix (directly, or after the root and sibling
// arrangement of streamPlan), enumeration streams off the encoding.
// Otherwise it sorts: an order the tree cannot stream goes through the
// bounded heap, and so does every retrieval over a bag, in its first
// operand's column order — each operand streams in order, their
// concatenation does not (canonical schema order when there are no keys).
func (r *Result) retrieval() *retrieval {
	r.once.Do(func() {
		rt := &r.out
		rt.enc = r.parts[0]
		switch {
		case len(r.parts) > 1:
			// a bag: sorted below, whatever the keys
		case len(r.order) == 0:
			rt.streamed = true
		default:
			rt.enc, rt.plan, rt.streamed = streamPlan(rt.enc, r.order, r.less)
		}
		if !rt.streamed {
			k := -1
			if r.limit >= 0 {
				k = r.offset + r.limit
			}
			rt.rows = frep.SortedRows(r.parts, r.order, r.less, k)
		}
	})
	return &r.out
}

// streamPlan finds the encoding and order plan that stream keys
// structurally: e itself when the keys already label its pre-order prefix,
// a view over the root and sibling arrangement frep.ResolveOrder picks
// (Reindex shares the arena) otherwise. ok == false: no arrangement
// streams, the caller sorts.
func streamPlan(e *frep.Enc, keys []frep.OrderKey, less []frep.ValueLess) (*frep.Enc, *frep.EncOrder, bool) {
	t, p, ok := frep.ResolveOrder(e.Tree, keys, less)
	if !ok || t == e.Tree {
		return e, p, ok
	}
	if e2, err := e.Reindex(t); err == nil {
		return e2, p, true
	}
	return e, nil, false
}

// OrderStreamed reports whether this result's ordered retrieval streams
// structurally off the factorised representation (no sort). It is false for
// unordered results and for the bounded-heap fallback. Unlike the
// plan-time Stmt.Explain().Order, this is the exec-time truth: it accounts
// for any restructuring the projection applied.
func (r *Result) OrderStreamed() bool { return len(r.order) > 0 && r.retrieval().streamed }

// Size returns the number of singletons (the paper's |E|), summed over a
// bag's operands.
func (r *Result) Size() int {
	var n int64
	for _, e := range r.parts {
		n = frep.SatAdd(n, int64(e.Size()))
	}
	return int(n)
}

// Count returns the number of retrievable tuples: the represented count
// (summed over a bag's operands, saturating at math.MaxInt64), clipped by
// Offset and Limit.
func (r *Result) Count() int64 {
	var c int64
	for _, e := range r.parts {
		c = frep.SatAdd(c, e.Count())
	}
	if r.offset > 0 {
		c -= int64(r.offset)
		if c < 0 {
			c = 0
		}
	}
	if r.limit >= 0 && c > int64(r.limit) {
		c = int64(r.limit)
	}
	return c
}

// Empty reports whether the result has no tuples (an empty relation, an
// Offset past the end, or Limit(0)).
func (r *Result) Empty() bool {
	for _, e := range r.parts {
		if !e.IsEmpty() {
			return r.ordered() && r.Count() == 0
		}
	}
	return true
}

// FlatSize returns Count() times the number of visible attributes: the
// number of data elements a flat representation of the retrievable result
// would hold. Like Count it saturates at math.MaxInt64.
func (r *Result) FlatSize() int64 {
	return frep.SatMul(r.Count(), int64(len(r.parts[0].Schema())))
}

// Schema lists the result attributes in enumeration order.
func (r *Result) Schema() []string {
	sch := r.retrieval().enc.Schema()
	out := make([]string, len(sch))
	for i, a := range sch {
		out[i] = string(a)
	}
	return out
}

// FTree renders the result's factorisation tree; a bag's operands' trees
// joined by ⊎.
func (r *Result) FTree() string {
	if len(r.parts) == 1 {
		return r.retrieval().enc.Tree.String()
	}
	return r.render(func(e *frep.Enc) string { return e.Tree.String() })
}

// String renders the factorised representation in the paper's notation,
// each value as Each renders it; a bag's operands joined by ⊎.
func (r *Result) String() string {
	snap, kinds := r.db.dict.Snapshot(), r.db.kinds()
	return r.render(func(e *frep.Enc) string { return e.StringDict(snap, kinds) })
}

// render joins f over the result's encodings with ⊎.
func (r *Result) render(f func(*frep.Enc) string) string {
	out := make([]string, len(r.parts))
	for i, e := range r.parts {
		out[i] = f(e)
	}
	return strings.Join(out, " ⊎ ")
}

// Each enumerates the tuples as rendered rows until fn returns false,
// honouring OrderBy, Offset and Limit: an integer attribute's value in
// decimal, a string attribute's as its string. The row slice is reused
// between calls — clone it to retain (Rows does). Every row of one call
// renders against one dictionary snapshot.
func (r *Result) Each(fn func(row []string) bool) {
	it := r.Iter()
	snap, kinds := r.db.dict.Snapshot(), r.Kinds()
	row := make([]string, len(kinds))
	for {
		t, ok := it.Next()
		if !ok {
			return
		}
		for i, v := range t {
			row[i] = relation.Cell(snap, v, kinds[i])
		}
		if !fn(row) {
			return
		}
	}
}

// Rows materialises up to limit rows (limit <= 0: all).
func (r *Result) Rows(limit int) [][]string {
	var out [][]string
	r.Each(func(row []string) bool {
		out = append(out, append([]string(nil), row...))
		return limit <= 0 || len(out) < limit
	})
	return out
}

// Enc exposes the underlying encoded representation (advanced use: direct
// access to the internal packages). A bag has none: it returns nil.
func (r *Result) Enc() *frep.Enc {
	if len(r.parts) > 1 {
		return nil
	}
	return r.parts[0]
}

// Dict returns the dictionary the result's string values decode under:
// Iter's raw values rendered with relation.AppendCell against one
// Dict().Snapshot() and their column's kind in Kinds are exactly Each's
// cells.
func (r *Result) Dict() *relation.Dict { return r.db.dict }

// Kinds returns the kind of each column of Schema (see Dict).
func (r *Result) Kinds() []relation.Kind { return kindsOf(r.db.kinds(), r.retrieval().enc.Schema()) }

// kindsOf looks each attribute's kind up in kinds.
func kindsOf(kinds map[relation.Attribute]relation.Kind, attrs []relation.Attribute) []relation.Kind {
	out := make([]relation.Kind, len(attrs))
	for i, a := range attrs {
		out[i] = kinds[a]
	}
	return out
}

// Iter returns a resumable iterator over the result's tuples (raw values;
// use Each/Rows for rendered output), honouring OrderBy, Offset
// and Limit. Unordered results and order-compatible OrderBys walk the
// encoded columns directly with constant delay and no per-tuple allocation
// (with a Limit, retrieval visits O(offset+limit) entries and stops);
// incompatible orders and bags replay rows sorted once per result.
func (r *Result) Iter() frep.TupleIter {
	return frep.Clip(r.retrieval().cursor(), r.offset, r.limit)
}

// Where refines the factorised result with the clauses a query takes,
// From, parameters and aggregation excepted, applied in a query's order:
// constant selections, then equality conditions, then Project, then the
// retrieval clauses OrderBy, Offset, Limit and Distinct (through the same
// path as a query's, with order keys checked against the projected schema).
// For the conditions the engine finds an optimal f-plan (restructuring +
// merge/absorb operators) and executes it on the encoded representation
// (encoded operators are pure, so the receiver is unchanged; a new Result is
// returned). A plan depends on the exact f-tree and the conditions alone, so
// the plan cache keeps it for every same-shaped Where or Join; a search past
// its budget serves the greedy plan and counts in
// CacheStats.BudgetFallbacks. On a bag, every operand is refined (a
// projection is a set projection per operand) and the result stays a bag;
// the retrieval clauses apply to the whole bag. An ordered or clipped
// result is finished: it takes no further Where, Join or set operation.
func (r *Result) Where(clauses ...Clause) (*Result, error) {
	if r.ordered() {
		return nil, fmt.Errorf("fdb: Where on an ordered/limited result is not supported; put OrderBy/Offset/Limit in the last Where")
	}
	s, err := compileSpec(modeWhere, clauses)
	if err != nil {
		return nil, err
	}
	if err := r.db.checkKinds(s, nil); err != nil {
		return nil, err
	}
	out := make([]*frep.Enc, len(r.parts))
	for i, enc := range r.parts {
		if out[i], err = r.db.refine(enc, s); err != nil {
			return nil, err
		}
	}
	return newResult(r.db, out...).dress(s.outClauses)
}

// refine applies Where's selections, equality conditions and projection to
// one set encoding, and checks the order keys against what is left.
func (db *DB) refine(enc *frep.Enc, s *spec) (*frep.Enc, error) {
	var err error
	// Selections first (cheapest, Section 4), each compiled by selPred.
	for _, sel := range s.sels {
		keep, pinned := db.selPred(sel.op, sel.val)
		op := fplan.Select{A: sel.attr, Keep: keep, Const: pinned, Label: fmt.Sprintf("%s %#v", sel.op, sel.val)}
		if enc, err = fplan.ApplyEnc(op, enc); err != nil {
			return nil, err
		}
	}
	var conds []opt.Condition
	for _, e := range s.eqs {
		if enc.Tree.NodeOf(e.A) == nil || enc.Tree.NodeOf(e.B) == nil {
			return nil, fmt.Errorf("fdb: condition %s=%s references attribute not in result", e.A, e.B)
		}
		if enc.Tree.NodeOf(e.A) != enc.Tree.NodeOf(e.B) {
			conds = append(conds, opt.Condition{A: e.A, B: e.B})
		}
	}
	if len(conds) > 0 {
		res, err := db.planConds(enc.Tree, conds)
		if err != nil {
			return nil, err
		}
		if enc, err = res.Plan.ExecuteEnc(context.TODO(), enc); err != nil {
			return nil, err
		}
	}
	if s.project != nil {
		if enc, err = fplan.ApplyEnc(fplan.Project{Attrs: s.project}, enc); err != nil {
			return nil, err
		}
	}
	if len(s.order) > 0 {
		if err := checkOrderKeys(s.order, enc.Schema()); err != nil {
			return nil, err
		}
	}
	return enc, nil
}

// Join combines two factorised results over disjoint attributes and refines
// the product with Where's clauses — the Q1 ⋈ Q2 scenario of Example 2. Both
// results must come from the same DB: values are dictionary-encoded per
// database, so joining across databases would silently compare unrelated
// codes and decode garbage. A bag joins operand by operand (the product
// distributes over the bag union), and the result is a bag.
func (r *Result) Join(other *Result, clauses ...Clause) (*Result, error) {
	if err := r.combinable("Join", other); err != nil {
		return nil, err
	}
	var prods []*frep.Enc
	for _, a := range r.parts {
		for _, b := range other.parts {
			prod, err := fplan.ProductEnc(a, b)
			if err != nil {
				return nil, err
			}
			prods = append(prods, prod)
		}
	}
	joined := newResult(r.db, prods...)
	if len(clauses) == 0 {
		return joined, nil
	}
	return joined.Where(clauses...)
}

// Union returns the set union of two factorised results over the same
// visible attributes, computed natively on the encoded representations: a
// simultaneous walk of both encodings' sorted unions emitting through the
// arena builder, never through the flat tuples (see frep.SetUnionEnc for the
// alignment and decomposability rules). Both operands must come from the
// same DB (shared dictionary); the result has set semantics.
func (r *Result) Union(other *Result) (*Result, error) {
	return r.setOp("Union", frep.SetUnionEnc, other)
}

// UnionAll returns the bag union of two factorised results over the same
// visible attributes: every tuple of both operands, duplicates preserved.
// It builds nothing: the result keeps both operands' set encodings (a bag
// operand's own operands), and Distinct (or Union) folds them into a set.
func (r *Result) UnionAll(other *Result) (*Result, error) {
	if err := r.combinable("UnionAll", other); err != nil {
		return nil, err
	}
	if err := frep.CheckSetSchemas("union all", r.parts[0], other.parts[0]); err != nil {
		return nil, err
	}
	return newResult(r.db, slices.Concat(r.parts, other.parts)...), nil
}

// Except returns the set difference r − other over the same visible
// attributes, computed natively on the encoded representations.
func (r *Result) Except(other *Result) (*Result, error) {
	return r.setOp("Except", frep.ExceptEnc, other)
}

// Intersect returns the set intersection of two factorised results over the
// same visible attributes, computed natively on the encoded representations.
func (r *Result) Intersect(other *Result) (*Result, error) {
	return r.setOp("Intersect", frep.IntersectEnc, other)
}

// setOp runs one of the set operations Union, Except and Intersect. A bag
// operand is folded into a set first.
func (r *Result) setOp(name string, op func(a, b *frep.Enc) (*frep.Enc, error), other *Result) (*Result, error) {
	if err := r.combinable(name, other); err != nil {
		return nil, err
	}
	a, err := r.set()
	if err != nil {
		return nil, err
	}
	b, err := other.set()
	if err != nil {
		return nil, err
	}
	enc, err := op(a, b)
	if err != nil {
		return nil, err
	}
	return newResult(r.db, enc), nil
}

// combinable is the shared guard of Join and the set operations: a non-nil
// operand from the same database (values are dictionary-encoded per DB, so
// cross-database operands would silently compare unrelated codes), and
// unordered operands (order and clipping belong in the last Where, not on
// intermediate algebra).
func (r *Result) combinable(name string, other *Result) error {
	if other == nil {
		return fmt.Errorf("fdb: %s with nil result", name)
	}
	if r.db != other.db {
		return fmt.Errorf("fdb: %s across different DB instances: the dictionary encodings are incompatible", name)
	}
	if r.ordered() || other.ordered() {
		return fmt.Errorf("fdb: %s of an ordered/limited result is not supported; put OrderBy/Offset/Limit in the last Where", name)
	}
	return nil
}

// Table renders the enumerated result (up to limit rows) as a tab-separated
// table for display.
func (r *Result) Table(limit int) string { return tabTable(r.Schema(), r.Rows(limit)) }

// tabTable joins a header and rows into tab-separated lines.
func tabTable(schema []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString(strings.Join(schema, "\t"))
	b.WriteByte('\n')
	for _, row := range rows {
		b.WriteString(strings.Join(row, "\t"))
		b.WriteByte('\n')
	}
	return b.String()
}

// AggResult is the result of an aggregation statement's ExecAgg (which
// QueryAgg runs after Prepare): one row per group, sorted by group key, with
// rendered key accessors and typed aggregate values. A global
// aggregate (no GroupBy) has one row with an empty key — or zero rows if
// the query result is empty.
type AggResult struct {
	db      *DB
	groupBy []relation.Attribute
	specs   []frep.AggSpec
	rows    []frep.AggRow
}

// Len returns the number of groups.
func (r *AggResult) Len() int { return len(r.rows) }

// Schema lists the output columns: the group-by attributes followed by one
// label per aggregate ("count", "sum(Orders.qty)", …).
func (r *AggResult) Schema() []string {
	out := make([]string, 0, len(r.groupBy)+len(r.specs))
	for _, a := range r.groupBy {
		out = append(out, string(a))
	}
	for _, s := range r.specs {
		out = append(out, s.Label())
	}
	return out
}

// Key returns row i's group key, rendered as Result.Each renders cells
// (empty for a global aggregate).
func (r *AggResult) Key(i int) []string { return r.key(r.db.dict.Snapshot(), r.Kinds(), i) }

// key renders row i's group key against a dictionary snapshot and the
// group-by attributes' kinds.
func (r *AggResult) key(snap []string, kinds []relation.Kind, i int) []string {
	out := make([]string, len(r.rows[i].Key))
	for j, v := range r.rows[i].Key {
		out[j] = relation.Cell(snap, v, kinds[j])
	}
	return out
}

// KeyValues returns row i's group key as raw values (read-only; Key decodes
// them).
func (r *AggResult) KeyValues(i int) []relation.Value { return r.rows[i].Key }

// Dict returns the dictionary the group keys' string values decode under:
// KeyValues rendered with relation.AppendCell against one Dict().Snapshot()
// and their column's kind in Kinds are exactly Key's cells.
func (r *AggResult) Dict() *relation.Dict { return r.db.dict }

// Kinds returns the kind of each group-by attribute.
func (r *AggResult) Kinds() []relation.Kind { return kindsOf(r.db.kinds(), r.groupBy) }

// Value returns row i's value for the j-th Agg clause.
func (r *AggResult) Value(i, j int) int64 { return r.rows[i].Vals[j] }

// Int returns row i's value for the aggregate with the given label (as in
// Schema(), e.g. "count" or "min(Store.location)").
func (r *AggResult) Int(i int, label string) (int64, error) {
	for j, s := range r.specs {
		if s.Label() == label {
			return r.rows[i].Vals[j], nil
		}
	}
	return 0, fmt.Errorf("fdb: no aggregate %q in result (have %v)", label, r.Schema()[len(r.groupBy):])
}

// Group returns the row index of the given rendered group key, or -1.
// (Comparison is on rendered strings, so looking up an unknown key never
// grows the dictionary.)
func (r *AggResult) Group(key ...string) int {
	snap, kinds := r.db.dict.Snapshot(), r.Kinds()
	for i := range r.rows {
		k := r.key(snap, kinds, i)
		if len(k) != len(key) {
			continue
		}
		match := true
		for j := range key {
			if k[j] != key[j] {
				match = false
				break
			}
		}
		if match {
			return i
		}
	}
	return -1
}

// Rows materialises up to limit rows (limit <= 0: all) as rendered strings:
// group keys followed by aggregate values.
func (r *AggResult) Rows(limit int) [][]string {
	n := len(r.rows)
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([][]string, 0, n)
	snap, kinds := r.db.dict.Snapshot(), r.Kinds()
	for i := 0; i < n; i++ {
		row := make([]string, 0, len(r.groupBy)+len(r.specs))
		row = append(row, r.key(snap, kinds, i)...)
		for _, v := range r.rows[i].Vals {
			row = append(row, strconv.FormatInt(v, 10))
		}
		out = append(out, row)
	}
	return out
}

// Table renders the result (up to limit rows) as a tab-separated table.
func (r *AggResult) Table(limit int) string { return tabTable(r.Schema(), r.Rows(limit)) }
