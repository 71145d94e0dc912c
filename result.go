package fdb

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/fplan"
	"repro/internal/frep"
	"repro/internal/opt"
	"repro/internal/relation"
)

// Result is a factorised query result, carried end-to-end in the
// arena-backed columnar encoding (frep.Enc). Follow-up queries (Where,
// Select, ProjectTo, Join) run directly on the encoded representation,
// using the optimisers to pick cheap f-plans.
type Result struct {
	db  *DB
	enc *frep.Enc
	// Ordered retrieval state (OrderBy/Offset/Limit clauses): enumeration
	// surfaces stream through an order-aware iterator; the representation
	// itself stays factorised and unsorted.
	order  []frep.OrderKey
	offset int
	limit  int // -1: no limit
	less   frep.ValueLess
	// Lazily resolved order plan: the enc actually enumerated (possibly a
	// sibling-reordered view sharing the arena) and its streaming plan (nil:
	// bounded-heap sort fallback).
	ordOnce   sync.Once
	ordEnc    *frep.Enc
	ordPlan   *frep.EncOrder
	ordStream bool
	// Lazily materialised sort-fallback rows: the sort runs once per result,
	// every retrieval call replays a fresh cursor over the shared slice.
	sortOnce sync.Once
	sortRows []relation.Tuple
	// Lazily computed bag flag: UnionAll leaves duplicate union entries in
	// the encoding, and those entries' subtrees are not merged — retrieval
	// over such a representation must sort.
	bagOnce sync.Once
	bag     bool
}

// newResult wraps an encoded representation in an (unordered, unlimited)
// result. Limit uses -1 as "none", so every construction site must go
// through here rather than a bare literal.
func newResult(db *DB, enc *frep.Enc) *Result {
	return &Result{db: db, enc: enc, limit: -1}
}

// ordered reports whether retrieval goes through the order/offset/limit
// machinery.
func (r *Result) ordered() bool { return len(r.order) > 0 || r.offset > 0 || r.limit >= 0 }

// isBag reports (once, cached) whether the encoding carries duplicate union
// entries — the UnionAll representation. Bag enumeration cannot stream off
// the structure: two equal adjacent entries hold separate subtrees whose
// tuple sequences would need merging, so retrieval sorts instead.
func (r *Result) isBag() bool {
	r.bagOnce.Do(func() { r.bag = r.enc.HasDupEntries() })
	return r.bag
}

// resolveOrder decides, once, how the ORDER BY streams: directly off the
// encoding when the keys already label the pre-order prefix; off a
// sibling-reordered view (Reindex shares the arena) when only the child
// order is in the way; otherwise the bounded-heap sort fallback.
func (r *Result) resolveOrder() {
	r.ordOnce.Do(func() {
		r.ordEnc = r.enc
		if r.isBag() {
			// A bag representation (UnionAll) carries duplicate union
			// entries whose subtrees differ; streaming would emit each
			// subtree in order but not the merge of the two, so every
			// retrieval sorts (canonical schema order when no keys).
			return
		}
		if len(r.order) == 0 {
			r.ordStream = true // enumeration order, just clipped
			return
		}
		if p, ok := frep.ResolveOrder(r.enc, r.order, r.less); ok {
			r.ordPlan, r.ordStream = p, true
			return
		}
		t := r.enc.Tree.Clone()
		if fplan.ReorderForOrder(t, r.order) {
			if e2, err := r.enc.Reindex(t); err == nil {
				if p, ok := frep.ResolveOrder(e2, r.order, r.less); ok {
					r.ordEnc, r.ordPlan, r.ordStream = e2, p, true
				}
			}
		}
	})
}

// OrderStreamed reports whether this result's ordered retrieval streams
// structurally off the factorised representation (no sort). It is false for
// unordered results and for the bounded-heap fallback. Unlike the
// plan-time Stmt.OrderStreamable, this is the exec-time truth: it accounts
// for any restructuring the projection applied.
func (r *Result) OrderStreamed() bool {
	if len(r.order) == 0 {
		return false
	}
	r.resolveOrder()
	return r.ordStream
}

// enumEnc returns the encoding enumeration runs over (the sibling-reordered
// view when ordering required one; schema accessors follow it so rows and
// column names always agree).
func (r *Result) enumEnc() *frep.Enc {
	if !r.ordered() {
		return r.enc
	}
	r.resolveOrder()
	return r.ordEnc
}

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
	sch := r.enumEnc().Schema()
	out := make([]string, len(sch))
	for i, a := range sch {
		out[i] = string(a)
	}
	return out
}

// FTree renders the result's factorisation tree.
func (r *Result) FTree() string { return r.enumEnc().Tree.String() }

// String renders the factorised representation in the paper's notation,
// decoding dictionary values.
func (r *Result) String() string { return r.enc.StringDict(r.db.dict) }

// Each enumerates the tuples as string-decoded rows until fn returns false,
// honouring OrderBy, Offset and Limit. The row slice is reused between calls
// — clone it to retain (Rows does).
func (r *Result) Each(fn func(row []string) bool) {
	it := r.Iter()
	row := make([]string, len(it.Schema()))
	for {
		t, ok := it.Next()
		if !ok {
			return
		}
		for i, v := range t {
			row[i] = r.db.dict.Decode(v)
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

// Iter returns a resumable iterator over the result's tuples (raw values;
// use Each/Rows for dictionary-decoded output), honouring OrderBy, Offset
// and Limit. Unordered results and order-compatible OrderBys walk the
// encoded columns directly with constant delay and no per-tuple allocation
// (with a Limit, retrieval visits O(offset+limit) entries and stops);
// incompatible orders materialise through a bounded heap.
func (r *Result) Iter() frep.TupleIter {
	if !r.ordered() && !r.isBag() {
		return frep.NewEncIterator(r.enc)
	}
	r.resolveOrder()
	if !r.ordStream {
		r.sortOnce.Do(func() {
			r.sortRows = frep.SortedRows(r.enc, r.order, r.less, r.offset, r.limit)
		})
		return frep.ReplayIter(r.enc.Schema(), r.sortRows)
	}
	var inner frep.TupleIter
	if r.ordPlan != nil {
		inner = frep.NewOrderedEncIterator(r.ordEnc, r.ordPlan)
	} else {
		inner = frep.NewEncIterator(r.ordEnc)
	}
	return frep.Clip(inner, r.offset, r.limit)
}

// IterShards splits the enumeration into n independent iterators over
// contiguous slices of the enumeration order (the root union is
// partitioned; draining shard 0, then 1, … reproduces the unordered Iter
// exactly). Results are immutable, so the shards may be drained by n
// concurrent goroutines — the parallel counterpart of Iter for consumers
// that want to scan large results with all cores. Shards ignore OrderBy,
// Offset and Limit: they partition the representation, not the ordered
// stream.
func (r *Result) IterShards(n int) []*frep.EncIterator { return r.enc.EnumerateShards(n) }

// Where applies equality conditions to the factorised result: the engine
// searches for an optimal f-plan (restructuring + merge/absorb operators)
// and executes it on the encoded representation (encoded operators are
// pure, so the receiver is unchanged; a new Result is returned).
func (r *Result) Where(clauses ...Clause) (*Result, error) {
	if r.ordered() {
		return nil, fmt.Errorf("fdb: Where on an ordered/limited result is not supported; apply OrderBy/Limit to the final query")
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
		res, err := opt.ExhaustivePlan(enc.Tree, conds, opt.PlanSearchOptions{})
		if err != nil {
			// Fall back to the greedy heuristic on large instances.
			g, gerr := opt.GreedyPlan(enc.Tree, conds)
			if gerr != nil {
				return nil, err
			}
			res = g
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
	return newResult(r.db, enc), nil
}

// Join combines two factorised results over disjoint attributes and applies
// the given equality conditions — the Q1 ⋈ Q2 scenario of Example 2. Both
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
		return nil, fmt.Errorf("fdb: Join of an ordered/limited result is not supported; apply OrderBy/Limit to the final query")
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
// silently compare unrelated codes), unordered operands (order/limit apply
// to the final retrieval, not to intermediate algebra).
func (r *Result) setOp(name string, op func(a, b *frep.Enc) (*frep.Enc, error), other *Result) (*Result, error) {
	if other == nil {
		return nil, fmt.Errorf("fdb: %s with nil result", name)
	}
	if r.db != other.db {
		return nil, fmt.Errorf("fdb: %s across different DB instances: the dictionary encodings are incompatible", name)
	}
	if r.ordered() || other.ordered() {
		return nil, fmt.Errorf("fdb: %s of an ordered/limited result is not supported; apply OrderBy/Limit to the final query", name)
	}
	enc, err := op(r.enc, other.enc)
	if err != nil {
		return nil, err
	}
	return newResult(r.db, enc), nil
}

// ProjectTo projects the factorised result onto the given attributes.
func (r *Result) ProjectTo(attrs ...string) (*Result, error) {
	if r.ordered() {
		return nil, fmt.Errorf("fdb: ProjectTo on an ordered/limited result is not supported; apply OrderBy/Limit to the final query")
	}
	var as []relation.Attribute
	for _, a := range attrs {
		as = append(as, relation.Attribute(a))
	}
	enc, err := fplan.ApplyEnc(fplan.Project{Attrs: as}, r.enc)
	if err != nil {
		return nil, err
	}
	return newResult(r.db, enc), nil
}

// Table renders the enumerated result (up to limit rows) as an aligned
// table for display.
func (r *Result) Table(limit int) string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Schema(), "\t"))
	b.WriteByte('\n')
	for _, row := range r.Rows(limit) {
		b.WriteString(strings.Join(row, "\t"))
		b.WriteByte('\n')
	}
	return b.String()
}

// SortedSchema returns the schema sorted alphabetically (stable rendering
// helper for tests).
func (r *Result) SortedSchema() []string {
	s := r.Schema()
	sort.Strings(s)
	return s
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
func (r *AggResult) Key(i int) []string {
	out := make([]string, len(r.rows[i].Key))
	for j, v := range r.rows[i].Key {
		out[j] = r.db.dict.Decode(v)
	}
	return out
}

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
	for i := range r.rows {
		k := r.Key(i)
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
	for i := 0; i < n; i++ {
		row := make([]string, 0, len(r.groupBy)+len(r.specs))
		row = append(row, r.Key(i)...)
		for _, v := range r.rows[i].Vals {
			row = append(row, strconv.FormatInt(v, 10))
		}
		out = append(out, row)
	}
	return out
}

// Table renders the result (up to limit rows) as a tab-separated table.
func (r *AggResult) Table(limit int) string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Schema(), "\t"))
	b.WriteByte('\n')
	for _, row := range r.Rows(limit) {
		b.WriteString(strings.Join(row, "\t"))
		b.WriteByte('\n')
	}
	return b.String()
}
