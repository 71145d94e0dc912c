package fdb

import (
	"context"
	"fmt"
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
// tuples leave.
type Result struct {
	db  *DB
	enc *frep.Enc
	// Retrieval clauses (OrderBy/Offset/Limit): the representation itself
	// stays factorised and unsorted, only the way out of it changes.
	order  []frep.OrderKey
	offset int
	limit  int // -1: no limit
	less   frep.ValueLess
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
	enc      *frep.Enc        // encoding walked; a sibling-reordered view of Result.enc when the order needed one
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

// newResult wraps an encoded representation in an (unordered, unlimited)
// result. Limit uses -1 as "none", so every construction site must go
// through here rather than a bare literal.
func newResult(db *DB, enc *frep.Enc) *Result {
	return &Result{db: db, enc: enc, limit: -1}
}

// dress wraps a finished encoding in the result its retrieval clauses
// describe: Distinct normalises the representation, OrderBy/Offset/Limit set
// how the tuples leave it.
func (db *DB) dress(enc *frep.Enc, out outClauses) (*Result, error) {
	if out.distinct {
		// Projection already yields set semantics; δ normalises and makes the
		// guarantee explicit (a no-op pass on every engine-built rep).
		var err error
		if enc, err = fplan.ApplyEnc(fplan.Distinct{}, enc); err != nil {
			return nil, err
		}
	}
	res := newResult(db, enc)
	res.order, res.offset, res.limit = out.order, out.offset, out.limit
	if res.ordered() {
		res.less = db.orderLess()
	}
	return res, nil
}

// ordered reports whether retrieval goes through the order/offset/limit
// machinery.
func (r *Result) ordered() bool { return len(r.order) > 0 || r.offset > 0 || r.limit >= 0 }

// retrieval decides, once, how the tuples leave. Without keys, and with keys
// that label the pre-order prefix (directly, or after the sibling reordering
// of streamPlan), enumeration streams off the encoding. Otherwise it sorts:
// an order the tree cannot stream goes through the bounded heap, and so does
// every retrieval over a bag — UnionAll leaves duplicate union entries whose
// subtrees differ; streaming would emit each subtree in order but not the
// merge of the two (canonical schema order when there are no keys).
func (r *Result) retrieval() *retrieval {
	r.once.Do(func() {
		rt := &r.out
		rt.enc = r.enc
		switch {
		case r.enc.HasDupEntries():
			// a bag: sorted below, whatever the keys
		case len(r.order) == 0:
			rt.streamed = true
		default:
			rt.enc, rt.plan, rt.streamed = streamPlan(r.enc, r.order, r.less)
		}
		if !rt.streamed {
			k := -1
			if r.limit >= 0 {
				k = r.offset + r.limit
			}
			rt.rows = frep.SortedRows(r.enc, r.order, r.less, k)
		}
	})
	return &r.out
}

// streamPlan finds the encoding and order plan that stream keys
// structurally: e itself when the keys already label its pre-order prefix, a
// sibling-reordered view (Reindex shares the arena) when only the child
// order is in the way. ok == false: no such view, the caller sorts.
func streamPlan(e *frep.Enc, keys []frep.OrderKey, less frep.ValueLess) (*frep.Enc, *frep.EncOrder, bool) {
	if p, ok := frep.ResolveOrder(e, keys, less); ok {
		return e, p, true
	}
	t := e.Tree.Clone()
	if fplan.ReorderForOrder(t, keys) {
		if e2, err := e.Reindex(t); err == nil {
			if p, ok := frep.ResolveOrder(e2, keys, less); ok {
				return e2, p, true
			}
		}
	}
	return e, nil, false
}

// OrderStreamed reports whether this result's ordered retrieval streams
// structurally off the factorised representation (no sort). It is false for
// unordered results and for the bounded-heap fallback. Unlike the
// plan-time Stmt.OrderStreamable, this is the exec-time truth: it accounts
// for any restructuring the projection applied.
func (r *Result) OrderStreamed() bool { return len(r.order) > 0 && r.retrieval().streamed }

// Size returns the number of singletons (the paper's |E|).
func (r *Result) Size() int { return r.enc.Size() }

// Count returns the number of retrievable tuples: the represented count,
// clipped by Offset and Limit.
func (r *Result) Count() int64 {
	c := r.enc.Count()
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
	if r.enc.IsEmpty() {
		return true
	}
	return r.ordered() && r.Count() == 0
}

// FlatSize returns Count() times the number of visible attributes: the
// number of data elements a flat representation of the retrievable result
// would hold. Like Count it saturates at math.MaxInt64.
func (r *Result) FlatSize() int64 { return frep.SatMul(r.Count(), int64(len(r.enc.Schema()))) }

// Schema lists the result attributes in enumeration order.
func (r *Result) Schema() []string {
	sch := r.retrieval().enc.Schema()
	out := make([]string, len(sch))
	for i, a := range sch {
		out[i] = string(a)
	}
	return out
}

// FTree renders the result's factorisation tree.
func (r *Result) FTree() string { return r.retrieval().enc.Tree.String() }

// String renders the factorised representation in the paper's notation,
// decoding dictionary values.
func (r *Result) String() string { return r.enc.StringDict(r.db.dict) }

// Each enumerates the tuples as string-decoded rows until fn returns false,
// honouring OrderBy, Offset and Limit. The row slice is reused between calls
// — clone it to retain (Rows does). Every row of one call renders against
// one dictionary snapshot, so a concurrent insert cannot change how a value
// renders halfway through.
func (r *Result) Each(fn func(row []string) bool) {
	it := r.Iter()
	snap := r.db.dict.Snapshot()
	row := make([]string, len(it.Schema()))
	for {
		t, ok := it.Next()
		if !ok {
			return
		}
		for i, v := range t {
			row[i] = relation.DecodeIn(snap, v)
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
// access to the internal packages).
func (r *Result) Enc() *frep.Enc { return r.enc }

// Dict returns the dictionary the result's values decode under: Iter's raw
// values rendered with relation.AppendDecoded against one Dict().Snapshot()
// are exactly Each's cells.
func (r *Result) Dict() *relation.Dict { return r.db.dict }

// Iter returns a resumable iterator over the result's tuples (raw values;
// use Each/Rows for dictionary-decoded output), honouring OrderBy, Offset
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
// CacheStats.BudgetFallbacks. An ordered or clipped result is finished: it
// takes no further Where, Join or set operation.
func (r *Result) Where(clauses ...Clause) (*Result, error) {
	if r.ordered() {
		return nil, fmt.Errorf("fdb: Where on an ordered/limited result is not supported; put OrderBy/Offset/Limit in the last Where")
	}
	s, err := compileSpec(modeWhere, clauses)
	if err != nil {
		return nil, err
	}
	enc := r.enc
	// Constant selections first (cheapest, Section 4): a code selection
	// where classifySel can bake one, a dictionary-order predicate otherwise.
	for _, sel := range s.sels {
		class, v, err := r.db.classifySel(sel.op, sel.val)
		if err != nil {
			return nil, err
		}
		if class == selConst {
			enc, err = fplan.ApplyEnc(fplan.SelectConst{A: sel.attr, Op: sel.op, C: v}, enc)
		} else {
			str := sel.val.(string) // compileSpec rejects Param in Where
			enc, err = fplan.ApplyEnc(fplan.SelectFn{
				A:     sel.attr,
				Keep:  r.db.stringSelPred(sel.op, str),
				Label: fmt.Sprintf("%s %q", sel.op, str),
			}, enc)
		}
		if err != nil {
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
		res, err := r.db.planConds(enc.Tree, conds)
		if err != nil {
			return nil, err
		}
		if enc, err = res.Plan.ExecuteEnc(context.TODO(), enc); err != nil {
			return nil, err
		}
	}
	if s.project != nil {
		enc, err = fplan.ApplyEnc(fplan.Project{Attrs: s.project}, enc)
		if err != nil {
			return nil, err
		}
	}
	if len(s.order) > 0 {
		if err := checkOrderKeys(s.order, enc.Schema()); err != nil {
			return nil, err
		}
	}
	return r.db.dress(enc, s.outClauses)
}

// Join combines two factorised results over disjoint attributes and refines
// the product with Where's clauses — the Q1 ⋈ Q2 scenario of Example 2. Both
// results must come from the same DB: values are dictionary-encoded per
// database, so joining across databases would silently compare unrelated
// codes and decode garbage.
func (r *Result) Join(other *Result, clauses ...Clause) (*Result, error) {
	if other == nil {
		return nil, fmt.Errorf("fdb: Join with nil result")
	}
	if r.db != other.db {
		return nil, fmt.Errorf("fdb: Join across different DB instances: the dictionary encodings are incompatible")
	}
	if r.ordered() || other.ordered() {
		return nil, fmt.Errorf("fdb: Join of an ordered/limited result is not supported; put OrderBy/Offset/Limit in the last Where")
	}
	prod, err := fplan.ProductEnc(r.enc, other.enc)
	if err != nil {
		return nil, err
	}
	joined := newResult(r.db, prod)
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

// UnionAll returns the bag union of two factorised results: every tuple of
// both operands, duplicates preserved. The duplicates live as doubled
// entries in the encoding — Distinct (or Union) restores set semantics.
func (r *Result) UnionAll(other *Result) (*Result, error) {
	return r.setOp("UnionAll", frep.BagUnionEnc, other)
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

// setOp is the shared guard path of the four set operations: same database
// (values are dictionary-encoded per DB, so cross-database operands would
// silently compare unrelated codes), unordered operands (order and clipping
// belong in the last Where, not on intermediate algebra).
func (r *Result) setOp(name string, op func(a, b *frep.Enc) (*frep.Enc, error), other *Result) (*Result, error) {
	if other == nil {
		return nil, fmt.Errorf("fdb: %s with nil result", name)
	}
	if r.db != other.db {
		return nil, fmt.Errorf("fdb: %s across different DB instances: the dictionary encodings are incompatible", name)
	}
	if r.ordered() || other.ordered() {
		return nil, fmt.Errorf("fdb: %s of an ordered/limited result is not supported; put OrderBy/Offset/Limit in the last Where", name)
	}
	enc, err := op(r.enc, other.enc)
	if err != nil {
		return nil, err
	}
	return newResult(r.db, enc), nil
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

// AggResult is the result of an aggregation query (QueryAgg or
// Stmt.ExecAgg): one row per group, sorted by group key, with
// dictionary-decoded key accessors and typed aggregate values. A global
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

// Key returns row i's group key, dictionary-decoded (empty for a global
// aggregate).
func (r *AggResult) Key(i int) []string { return r.key(r.db.dict.Snapshot(), i) }

// key decodes row i's group key against a dictionary snapshot.
func (r *AggResult) key(snap []string, i int) []string {
	out := make([]string, len(r.rows[i].Key))
	for j, v := range r.rows[i].Key {
		out[j] = relation.DecodeIn(snap, v)
	}
	return out
}

// KeyValues returns row i's group key as raw values (read-only; Key decodes
// them).
func (r *AggResult) KeyValues(i int) []relation.Value { return r.rows[i].Key }

// Dict returns the dictionary the group keys decode under.
func (r *AggResult) Dict() *relation.Dict { return r.db.dict }

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

// Group returns the row index of the given decoded group key, or -1.
// (Comparison is on decoded strings, so looking up an unknown key never
// grows the dictionary.)
func (r *AggResult) Group(key ...string) int {
	snap := r.db.dict.Snapshot()
	for i := range r.rows {
		k := r.key(snap, i)
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

// Rows materialises up to limit rows (limit <= 0: all) as decoded strings:
// group keys followed by aggregate values.
func (r *AggResult) Rows(limit int) [][]string {
	n := len(r.rows)
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([][]string, 0, n)
	snap := r.db.dict.Snapshot()
	for i := 0; i < n; i++ {
		row := make([]string, 0, len(r.groupBy)+len(r.specs))
		row = append(row, r.key(snap, i)...)
		for _, v := range r.rows[i].Vals {
			row = append(row, strconv.FormatInt(v, 10))
		}
		out = append(out, row)
	}
	return out
}

// Table renders the result (up to limit rows) as a tab-separated table.
func (r *AggResult) Table(limit int) string { return tabTable(r.Schema(), r.Rows(limit)) }
