package fdb

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/fbuild"
	"repro/internal/fplan"
	"repro/internal/frep"
	"repro/internal/ftree"
	"repro/internal/opt"
	"repro/internal/relation"
)

// mergeMaxFrac is the incremental-maintenance threshold: a refresh whose
// net delta exceeds this fraction of the statement's input tuples skips the
// arena merge and lets the next execution rebuild with BuildEncParallel —
// when deltas dominate, the full build's morsel parallelism beats patching
// most of the representation value by value.
const mergeMaxFrac = 0.25

// Stmt is a compiled, reusable select-project-join statement. Prepare pays
// the expensive part of query evaluation once — clause validation, optimal
// f-tree search, input snapshot (dedup + constant pre-filtering + path
// sort) — so that each Exec only binds parameters and builds the
// factorised result.
//
// A Stmt prepared from the database follows it: each Exec reads the
// relations' current versions, folding any delta batches committed since
// the last execution into its sorted snapshots (and, when the change is
// small, directly into its cached encoded representation) — the compiled
// plan is immutable and never recompiles. A Stmt prepared from a Snapshot
// is pinned: it keeps reading the snapshot's versions and fails loudly once
// the snapshot is closed. Exec is safe for concurrent callers.
type Stmt struct {
	stmtPlan
	fp   string    // plan-cache fingerprint; "" when not cached
	snap *Snapshot // non-nil: pinned to this snapshot's versions

	// data is the one mutable part: refresh publishes successor input
	// versions atomically, refreshMu serialises that slow path.
	data      atomic.Pointer[stmtData]
	refreshMu sync.Mutex
}

// stmtPlan is a statement's compiled plan: everything Prepare decided,
// immutable from then on, and shared by value with the statement's pinned
// derivatives (see pin).
type stmtPlan struct {
	db       *DB
	lsels    []lateSel            // selections whose value resolves per Exec
	params   []string             // distinct parameter names, declaration order
	project  []relation.Attribute // nil: keep all attributes
	groupBy  []relation.Attribute // aggregation statements: group-by attributes
	aggs     []frep.AggSpec       // aggregation statements: aggregates to compute
	order    []frep.OrderKey      // ORDER BY keys; empty: enumeration order
	offset   int                  // tuples to skip
	limit    int                  // result cap; -1: none
	distinct bool                 // explicit set-semantics normalisation

	tree       *ftree.T    // the f-tree planTree chose
	inputs     []stmtInput // per-input filters and path-sort permutations for that tree
	cost       float64     // s(T) of the compiled f-tree
	streamable bool        // the tree streams the statement's ORDER BY
}

// stmtInput is one compiled input relation: its backing store, the
// constant-selection pre-filter baked at compile time, and the column
// permutation of its f-tree path sort (for in-order delta merging).
type stmtInput struct {
	store     *delta.Store
	filter    func(relation.Tuple) bool // nil: no constant selection
	sortIdx   []int
	sortAttrs []relation.Attribute // schema attrs in sortIdx order (SortBy arg)
}

// stmtData is one immutable version of a statement's inputs: the deduped,
// pre-filtered, path-sorted snapshots and the store version each reflects.
// The encoded representation of a statement that memoises one is kept here
// (built on first use, or inherited from the previous version via the
// incremental merge); reads and writes of enc go through mu.
type stmtData struct {
	rels []*relation.Relation
	vers []uint64

	mu  sync.Mutex
	enc *frep.Enc // cached pre-projection build; nil until needed
}

// lateSel is one compiled selection whose value is only known at execution
// time: column col of input relation rel compared against val. A ParamValue
// stands for the execution's binding of that parameter. A string is a
// constant that must be re-resolved against the dictionary on every
// execution: a range comparison (decoded order can gain strings between
// Execs) or an equality whose constant had no code at prepare time (it may
// gain one). Equalities on already-encoded strings compile to constant code
// selections instead — codes are permanent, so baking them is cache-safe.
type lateSel struct {
	rel int
	col int
	op  fplan.Cmp
	val interface{}
}

// memoises reports whether every execution at one input version yields the
// same pre-projection encoding — nothing is selected at execution time — so
// that the encoding is built once per version, patched by refresh, carried
// by SaveSnapshot and adopted from a snapshot file. Statements with late
// selections filter and build per call.
func (p *stmtPlan) memoises() bool { return len(p.lsels) == 0 }

// execSel is one per-execution column filter: a late selection resolved
// for this execution.
type execSel struct {
	col  int
	pred func(relation.Value) bool
}

// NamedArg binds a parameter name to a value for Exec; create it with Arg.
type NamedArg struct {
	Name  string
	Value interface{}
}

// Arg binds the named Param placeholder to a value (int, int64 or string).
func Arg(name string, value interface{}) NamedArg { return NamedArg{Name: name, Value: value} }

// Prepare compiles a select-project-join query into a reusable statement.
// Selections whose value is a Param placeholder are compiled into the plan
// and bound per Exec; all other clauses are fixed at Prepare time.
func (db *DB) Prepare(clauses ...Clause) (*Stmt, error) {
	s, err := compileSpec(modeQuery, clauses)
	if err != nil {
		return nil, err
	}
	return db.prepareSpec(s, nil)
}

// prepareSpec is the shared compile path behind Prepare, Query and the
// snapshot query surface. With a non-nil snap the statement reads the
// snapshot's pinned states and never refreshes.
func (db *DB) prepareSpec(s *spec, snap *Snapshot) (*Stmt, error) {
	if len(s.from) == 0 {
		return nil, fmt.Errorf("fdb: query needs From(...)")
	}
	// Resolve the stores and capture one consistent version per input.
	// States are immutable: everything after the capture runs lock-free.
	stores := make([]*delta.Store, len(s.from))
	states := make([]*delta.State, len(s.from))
	db.mu.RLock()
	for i, name := range s.from {
		st, ok := db.stores[name]
		if !ok {
			db.mu.RUnlock()
			return nil, fmt.Errorf("fdb: unknown relation %q", name)
		}
		stores[i] = st
		states[i] = st.State()
	}
	db.mu.RUnlock()
	if snap != nil {
		if snap.isClosed() {
			return nil, errSnapshotClosed
		}
		for i, name := range s.from {
			st, ok := snap.states[name]
			if !ok {
				return nil, fmt.Errorf("fdb: relation %q created after the snapshot", name)
			}
			states[i] = st
		}
	}
	rels := make([]*relation.Relation, len(s.from))
	for i, st := range states {
		rels[i] = snapRelation(st)
	}

	// Split selections by classifySel's verdict: constants are pre-filtered
	// now, parameters and dynamic string selections resolve per Exec.
	var consts []core.ConstSel
	var lsels []lateSel
	params := s.params()
	locate := func(a relation.Attribute) (int, int, error) {
		for i, r := range rels {
			if j := r.Schema.Index(a); j >= 0 {
				return i, j, nil
			}
		}
		return -1, -1, fmt.Errorf("fdb: selection on unknown attribute %q", a)
	}
	for _, sel := range s.sels {
		class, v, err := db.classifySel(sel.op, sel.val)
		if err != nil {
			return nil, err
		}
		if class == selConst {
			consts = append(consts, core.ConstSel{A: sel.attr, Op: sel.op, C: v})
			continue
		}
		ri, ci, err := locate(sel.attr)
		if err != nil {
			return nil, err
		}
		lsels = append(lsels, lateSel{rel: ri, col: ci, op: sel.op, val: sel.val})
	}

	q := &core.Query{Relations: rels, Equalities: s.eqs, Selections: consts, Projection: s.project}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(s.groupBy) > 0 && len(s.aggs) == 0 {
		return nil, fmt.Errorf("fdb: GroupBy needs at least one Agg clause")
	}
	if len(s.aggs) > 0 && (len(s.orderBy) > 0 || s.limit >= 0 || s.offset > 0 || s.distinct) {
		return nil, fmt.Errorf("fdb: OrderBy/Limit/Offset/Distinct apply to tuple results; aggregate rows are already sorted by group key")
	}
	if len(s.orderBy) > 0 {
		out := relation.AttrSet{}
		if s.project != nil {
			for _, a := range s.project {
				out.Add(a)
			}
		} else {
			for _, r := range rels {
				for _, a := range r.Schema {
					out.Add(a)
				}
			}
		}
		for _, k := range s.orderBy {
			if !out.Has(k.Attr) {
				return nil, fmt.Errorf("fdb: order-by attribute %q not in the result", k.Attr)
			}
		}
	}
	if len(s.aggs) > 0 {
		if s.project != nil {
			return nil, fmt.Errorf("fdb: Project cannot be combined with aggregates (GroupBy defines the output columns)")
		}
		all := relation.AttrSet{}
		for _, r := range rels {
			for _, a := range r.Schema {
				all.Add(a)
			}
		}
		seen := relation.AttrSet{}
		for _, a := range s.groupBy {
			if seen.Has(a) {
				return nil, fmt.Errorf("fdb: duplicate group-by attribute %q", a)
			}
			seen.Add(a)
			if !all.Has(a) {
				return nil, fmt.Errorf("fdb: group-by attribute %q not in any input relation", a)
			}
		}
		for _, sp := range s.aggs {
			if sp.Fn != frep.AggCount && !all.Has(sp.Attr) {
				return nil, fmt.Errorf("fdb: aggregate attribute %q not in any input relation", sp.Attr)
			}
		}
	}
	// Constant selections are cheapest first (Section 4): filter inputs now
	// and keep each input's compiled filter for refresh-time delta
	// filtering.
	filters := make([]func(relation.Tuple) bool, len(rels))
	for i, r := range q.Relations {
		var mine []core.ConstSel
		for _, c := range q.Selections {
			if r.Schema.Contains(c.A) {
				mine = append(mine, c)
			}
		}
		if len(mine) > 0 {
			cols := make([]int, len(mine))
			for j, c := range mine {
				cols[j] = r.Schema.Index(c.A)
			}
			filters[i] = func(t relation.Tuple) bool {
				for j, c := range mine {
					if !c.Match(t[cols[j]]) {
						return false
					}
				}
				return true
			}
			q.Relations[i] = r.Select(filters[i])
		}
	}
	classes, schemas := q.Classes(), q.Schemas()
	tr, cost, err := db.planTree(classes, schemas, nil)
	if err != nil {
		return nil, err
	}
	// Grouped aggregation: restructure the optimal tree once, at compile
	// time, so the group-by attributes label nodes above every aggregated
	// one. Exec-time builds then produce the lifted layout directly and the
	// aggregation pass is linear in the representation size — no data
	// movement per Exec.
	if len(s.groupBy) > 0 {
		if err := (fplan.Lift{Attrs: s.groupBy}).ApplyTree(tr); err != nil {
			return nil, err
		}
	}
	// Order-aware planning: sibling and root order are semantically free, so
	// first try to reorder the optimal tree until the ORDER BY keys label the
	// front of its pre-order walk (streaming order, no sort). If the shape
	// itself is in the way, search for the cheapest order-compatible tree and
	// take it when the cost model approves — equal cost always, half a cover
	// unit of slack when a Limit makes top-k short-circuiting worth it.
	// Otherwise the statement keeps the optimal tree and retrieval falls back
	// to a bounded heap at Exec time.
	streamable := false
	if len(s.orderBy) > 0 {
		// A successful reorder is verified against the order property it
		// claims to establish.
		streamable = fplan.ReorderForOrder(tr, s.orderBy) && fplan.OrderCompatible(tr, s.orderBy)
		if !streamable {
			ot, ocost, oerr := db.planTree(classes, schemas, orderChain(classes, s.orderBy))
			switch {
			case oerr == nil:
				if opt.PreferOrdered(cost, ocost, s.limit >= 0) && fplan.ReorderForOrder(ot, s.orderBy) {
					tr, cost = ot, ocost
					streamable = true
				}
			case errors.Is(oerr, opt.ErrOrderIncompatible):
				// No f-tree of this query streams the requested order;
				// retrieval falls back to the bounded heap at Exec time.
			default:
				return nil, oerr
			}
		}
	}
	// Sort every snapshot in its f-tree path order once; Exec-time builds
	// then see pre-sorted inputs and never mutate the shared snapshots.
	if err := fbuild.SortFor(q.Relations, tr); err != nil {
		return nil, err
	}
	inputs := make([]stmtInput, len(s.from))
	vers := make([]uint64, len(s.from))
	for i := range s.from {
		idx, err := fbuild.SortIndex(q.Relations[i], tr)
		if err != nil {
			return nil, err
		}
		attrs := make([]relation.Attribute, len(idx))
		for j, c := range idx {
			attrs[j] = q.Relations[i].Schema[c]
		}
		inputs[i] = stmtInput{store: stores[i], filter: filters[i], sortIdx: idx, sortAttrs: attrs}
		vers[i] = states[i].Ver
	}
	st := &Stmt{snap: snap, stmtPlan: stmtPlan{
		db:       db,
		lsels:    lsels,
		params:   params,
		project:  s.project,
		groupBy:  s.groupBy,
		aggs:     s.aggs,
		order:    s.orderBy,
		offset:   s.offset,
		limit:    s.limit,
		distinct: s.distinct,

		tree:       tr,
		inputs:     inputs,
		cost:       cost,
		streamable: streamable,
	}}
	st.data.Store(&stmtData{rels: q.Relations, vers: vers})
	return st, nil
}

// pin derives a statement bound to the snapshot's pinned versions from an
// already-compiled live statement, sharing the compiled plan — f-tree,
// parameter slots, baked filters and sort permutations — and paying only
// the input re-snapshot (dedup, constant pre-filter, path sort). This is
// the server front-end's path for executing a cached statement under a
// per-connection snapshot: clause validation and f-tree search are never
// repeated per (statement, snapshot) pair. The pinned statement never
// refreshes and fails loudly once the snapshot is closed.
func (st *Stmt) pin(snap *Snapshot) (*Stmt, error) {
	if st.snap != nil {
		return nil, fmt.Errorf("fdb: statement is already pinned to a snapshot")
	}
	if snap.isClosed() {
		return nil, errSnapshotClosed
	}
	ns := &Stmt{stmtPlan: st.stmtPlan, snap: snap}
	rels := make([]*relation.Relation, len(st.inputs))
	vers := make([]uint64, len(st.inputs))
	for i, in := range st.inputs {
		state, ok := snap.states[in.store.Name]
		if !ok {
			return nil, fmt.Errorf("fdb: relation %q created after the snapshot", in.store.Name)
		}
		rels[i] = st.resnapInput(i, state)
		vers[i] = state.Ver
	}
	ns.data.Store(&stmtData{rels: rels, vers: vers})
	return ns, nil
}

// snapRelation derives a private, mutable snapshot of a state's live
// relation: a fresh tuple-slice header over shared (read-only) tuples.
func snapRelation(st *delta.State) *relation.Relation {
	live := st.Live()
	r := relation.New(live.Name, live.Schema)
	r.Tuples = append(make([]relation.Tuple, 0, len(live.Tuples)), live.Tuples...)
	r.Dedup()
	return r
}

// orderChain maps the ORDER BY keys to their attribute-class indices, in key
// order with repeats dropped — the chain the ordered search pins to the
// front of the pre-order walk.
func orderChain(classes []relation.AttrSet, keys []frep.OrderKey) []int {
	var chain []int
	seen := map[int]bool{}
	for _, k := range keys {
		for i, c := range classes {
			if c.Has(k.Attr) {
				if !seen[i] {
					seen[i] = true
					chain = append(chain, i)
				}
				break
			}
		}
	}
	return chain
}

// Params lists the statement's parameter names in declaration order.
func (st *Stmt) Params() []string { return append([]string(nil), st.params...) }

// Aggregates lists the statement's aggregate column labels in declaration
// order; empty for a plain select-project-join statement. Statements with
// aggregates run through ExecAgg, all others through Exec.
func (st *Stmt) Aggregates() []string {
	out := make([]string, len(st.aggs))
	for i, s := range st.aggs {
		out[i] = s.Label()
	}
	return out
}

// Cost returns the cost s(T) of the statement's compiled f-tree.
func (st *Stmt) Cost() float64 { return st.cost }

// OrderStreamable reports whether the compiled f-tree streams the
// statement's ORDER BY structurally (no sort; Limit short-circuits). It is
// trivially false without an OrderBy clause. A projection applied at Exec
// time can still restructure the tree, in which case retrieval re-checks and
// may fall back to the bounded-heap sort.
func (st *Stmt) OrderStreamable() bool { return st.streamable }

// FTree renders the statement's compiled f-tree.
func (st *Stmt) FTree() string { return st.tree.String() }

// Exec runs the compiled statement with the given parameter bindings and
// returns a fresh factorised result. Safe for concurrent callers.
// Statements with Agg clauses must use ExecAgg instead.
func (st *Stmt) Exec(args ...NamedArg) (*Result, error) {
	return st.ExecContext(context.Background(), args...)
}

// ExecContext is Exec with cancellation: the factorisation build and the
// baked projection observe ctx and abort with its error.
func (st *Stmt) ExecContext(ctx context.Context, args ...NamedArg) (*Result, error) {
	if len(st.aggs) > 0 {
		return nil, fmt.Errorf("fdb: statement computes aggregates; use ExecAgg")
	}
	fr, err := st.buildContext(ctx, args)
	if err != nil {
		return nil, err
	}
	if st.distinct {
		// Projection already yields set semantics; δ normalises and makes the
		// guarantee explicit (a no-op pass on every engine-built rep).
		fr, err = fplan.ApplyEnc(fplan.Distinct{}, fr)
		if err != nil {
			return nil, err
		}
	}
	res := newResult(st.db, fr)
	if len(st.order) > 0 || st.offset > 0 || st.limit >= 0 {
		res.order = st.order
		res.offset = st.offset
		res.limit = st.limit
		res.less = st.db.orderLess()
	}
	return res, nil
}

// ExecAgg runs a compiled aggregation statement (one with Agg clauses,
// optionally GroupBy) and returns its aggregate rows. The aggregates are
// computed in one pass over the factorised result, in time proportional to
// its factorised size — the flat relation is never enumerated. Safe for
// concurrent callers.
func (st *Stmt) ExecAgg(args ...NamedArg) (*AggResult, error) {
	return st.ExecAggContext(context.Background(), args...)
}

// ExecAggContext is ExecAgg with cancellation.
func (st *Stmt) ExecAggContext(ctx context.Context, args ...NamedArg) (*AggResult, error) {
	if len(st.aggs) == 0 {
		return nil, fmt.Errorf("fdb: statement has no aggregates; use Exec")
	}
	fr, err := st.buildContext(ctx, args)
	if err != nil {
		return nil, err
	}
	rows, err := fr.AggregateParallel(st.groupBy, st.aggs, st.db.Parallelism())
	if err != nil {
		return nil, err
	}
	return &AggResult{db: st.db, groupBy: st.groupBy, specs: st.aggs, rows: rows}, nil
}

// current reports whether d reflects every input store's current version.
func (st *Stmt) current(d *stmtData) bool {
	for i := range st.inputs {
		if st.inputs[i].store.State().Ver != d.vers[i] {
			return false
		}
	}
	return true
}

// refresh brings the statement's input snapshots up to the relations'
// current versions. The fast path is len(inputs) atomic loads; behind them,
// the slow path captures a consistent cut under the database read lock,
// folds each changed relation's net delta into its sorted snapshot with a
// linear merge (or re-snapshots wholesale when the history was compacted
// away), and — for memoising statements with a small enough delta —
// patches the cached encoded representation in place of the next rebuild.
// Pinned (snapshot-bound) statements never refresh.
func (st *Stmt) refresh() {
	if st.snap != nil {
		return
	}
	d := st.data.Load()
	if st.current(d) {
		return
	}
	st.refreshMu.Lock()
	defer st.refreshMu.Unlock()
	d = st.data.Load()
	if st.current(d) {
		return
	}
	// A consistent cut: no writer commits between the state loads.
	states := make([]*delta.State, len(st.inputs))
	st.db.mu.RLock()
	for i := range st.inputs {
		states[i] = st.inputs[i].store.State()
	}
	st.db.mu.RUnlock()

	nd := &stmtData{
		rels: make([]*relation.Relation, len(st.inputs)),
		vers: make([]uint64, len(st.inputs)),
	}
	deltas := make([]fbuild.RelDelta, len(st.inputs))
	resnap := false
	deltaTuples, totalTuples := 0, 0
	for i, in := range st.inputs {
		nd.vers[i] = states[i].Ver
		if states[i].Ver == d.vers[i] {
			nd.rels[i] = d.rels[i]
			totalTuples += d.rels[i].Cardinality()
			continue
		}
		adds, dels, ok := states[i].NetSince(d.vers[i])
		if !ok {
			// The history below our version was compacted away: rebuild
			// this input from the new base (the plan stays compiled).
			nd.rels[i] = st.resnapInput(i, states[i])
			totalTuples += nd.rels[i].Cardinality()
			resnap = true
			continue
		}
		if in.filter != nil {
			adds = filterTuples(adds, in.filter)
			dels = filterTuples(dels, in.filter)
		}
		nd.rels[i], deltas[i] = mergeSortedDelta(d.rels[i], adds, dels, in.sortIdx)
		deltaTuples += len(deltas[i].Adds) + len(deltas[i].Dels)
		totalTuples += nd.rels[i].Cardinality()
	}
	// Incremental maintenance of the cached representation: worth it only
	// for statements that memoise one (others build per Exec anyway), with
	// an encoding to patch, no wholesale re-snapshot, and a delta small
	// enough that patching beats the morsel-parallel rebuild.
	if st.memoises() && !resnap && deltaTuples > 0 &&
		float64(deltaTuples) <= mergeMaxFrac*float64(max(totalTuples, 1)) {
		d.mu.Lock()
		old := d.enc
		d.mu.Unlock()
		if old != nil {
			if enc, ok, err := fbuild.MergeEnc(nd.rels, st.tree.Clone(), old, deltas); err == nil && ok {
				nd.enc = enc
			}
		}
	}
	st.data.Store(nd)
}

// resnapInput rebuilds input i's snapshot from a state: dedup, constant
// pre-filter, path sort — the same pipeline Prepare ran.
func (st *Stmt) resnapInput(i int, state *delta.State) *relation.Relation {
	r := snapRelation(state)
	if f := st.inputs[i].filter; f != nil {
		r = r.Filter(f)
	}
	r.SortBy(st.inputs[i].sortAttrs)
	return r
}

// filterTuples returns the tuples passing f (allocation-free when all do).
func filterTuples(ts []relation.Tuple, f func(relation.Tuple) bool) []relation.Tuple {
	keep := ts[:0:0]
	for _, t := range ts {
		if f(t) {
			keep = append(keep, t)
		}
	}
	return keep
}

// mergeSortedDelta applies a net delta to a sorted, deduplicated snapshot
// with one linear merge in the snapshot's sort order (the column
// permutation idx), returning the new snapshot (sharing tuple storage with
// the old) and the delta actually applied: additions not already present
// and removals actually found — the touched set the representation merge
// patches.
func mergeSortedDelta(old *relation.Relation, adds, dels []relation.Tuple, idx []int) (*relation.Relation, fbuild.RelDelta) {
	cmp := func(a, b relation.Tuple) int {
		for _, c := range idx {
			if a[c] != b[c] {
				if a[c] < b[c] {
					return -1
				}
				return 1
			}
		}
		return 0
	}
	sortTuples := func(ts []relation.Tuple) []relation.Tuple {
		out := append(make([]relation.Tuple, 0, len(ts)), ts...)
		sort.Slice(out, func(i, j int) bool { return cmp(out[i], out[j]) < 0 })
		return out
	}
	adds, dels = sortTuples(adds), sortTuples(dels)
	var applied fbuild.RelDelta
	out := relation.New(old.Name, old.Schema)
	out.Tuples = make([]relation.Tuple, 0, len(old.Tuples)+len(adds))
	ai, di := 0, 0
	for _, t := range old.Tuples {
		for di < len(dels) && cmp(dels[di], t) < 0 {
			di++ // removal of an absent tuple: no-op
		}
		if di < len(dels) && cmp(dels[di], t) == 0 {
			applied.Dels = append(applied.Dels, t)
			di++
			continue
		}
		for ai < len(adds) && cmp(adds[ai], t) < 0 {
			out.Tuples = append(out.Tuples, adds[ai])
			applied.Adds = append(applied.Adds, adds[ai])
			ai++
		}
		if ai < len(adds) && cmp(adds[ai], t) == 0 {
			ai++ // addition of a present tuple: no-op
		}
		out.Tuples = append(out.Tuples, t)
	}
	for ; ai < len(adds); ai++ {
		out.Tuples = append(out.Tuples, adds[ai])
		applied.Adds = append(applied.Adds, adds[ai])
	}
	return out, applied
}

// buildContext binds parameters and builds the statement's factorised
// result: the shared evaluation path behind ExecContext and ExecAggContext.
// Parameter-free statements memoise the pre-projection encoding per input
// version (so a read-mostly workload re-executes from the cached arena);
// parameterised ones filter and build per call.
func (st *Stmt) buildContext(ctx context.Context, args []NamedArg) (*frep.Enc, error) {
	if st.snap != nil && st.snap.isClosed() {
		return nil, errSnapshotClosed
	}
	// Bindings stay raw Go values here: a string argument must resolve
	// through the read-only dictionary path below (Lookup / decoded-order
	// predicate), never by minting a code for it.
	bound := make(map[string]interface{}, len(args))
	for _, a := range args {
		known := false
		for _, p := range st.params {
			if p == a.Name {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("fdb: unknown parameter %q", a.Name)
		}
		if _, dup := bound[a.Name]; dup {
			return nil, fmt.Errorf("fdb: parameter %q bound twice", a.Name)
		}
		switch a.Value.(type) {
		case int, int64, relation.Value, string:
		default:
			return nil, fmt.Errorf("fdb: unsupported value type %T", a.Value)
		}
		bound[a.Name] = a.Value
	}
	for _, p := range st.params {
		if _, ok := bound[p]; !ok {
			return nil, fmt.Errorf("fdb: missing parameter %q", p)
		}
	}

	st.refresh()
	d := st.data.Load()

	if st.memoises() {
		fr, err := st.cachedEnc(ctx, d)
		if err != nil {
			return nil, err
		}
		return st.applyProject(ctx, fr)
	}

	// Resolve this execution's selections — bound parameters and dynamic
	// string comparisons — into per-relation column predicates, then filter
	// the affected snapshots. Filter shares tuple storage and preserves
	// order, so the filtered inputs stay sorted and the shared snapshots
	// stay untouched.
	byRel := map[int][]execSel{}
	for _, ls := range st.lsels {
		val := ls.val
		if p, ok := val.(ParamValue); ok {
			val = bound[p.name]
		}
		pred, err := st.db.selPred(ls.op, val)
		if err != nil {
			return nil, err
		}
		byRel[ls.rel] = append(byRel[ls.rel], execSel{col: ls.col, pred: pred})
	}
	rels := append([]*relation.Relation(nil), d.rels...)
	for ri, sels := range byRel {
		sels := sels
		rels[ri] = rels[ri].Filter(func(t relation.Tuple) bool {
			for _, es := range sels {
				if !es.pred(t[es.col]) {
					return false
				}
			}
			return true
		})
	}
	// Each Exec gets its own tree: the encoded representation owns it, and
	// downstream operators derive fresh trees from it. The build is
	// morsel-parallel when the execution's parallelism allows it.
	fr, err := fbuild.BuildEncParallelContext(ctx, rels, st.tree.Clone(), st.db.Parallelism())
	if err != nil {
		return nil, err
	}
	return st.applyProject(ctx, fr)
}

// cachedEnc returns d's memoised pre-projection encoding, building it on
// first use. Encoded representations are immutable, so handing the same
// *Enc to every Exec at this version is free sharing, not aliasing.
func (st *Stmt) cachedEnc(ctx context.Context, d *stmtData) (*frep.Enc, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.enc == nil {
		// A database opened from a snapshot file may hold a pre-built arena
		// for exactly this plan at exactly these input versions; adopting it
		// skips the build entirely (the arena stays in the mapped file).
		if enc := st.adoptSaved(d); enc != nil {
			d.enc = enc
			return d.enc, nil
		}
		enc, err := fbuild.BuildEncParallelContext(ctx, d.rels, st.tree.Clone(), st.db.Parallelism())
		if err != nil {
			return nil, err
		}
		d.enc = enc
	}
	return d.enc, nil
}

// applyProject bakes the statement's projection into the result (a pure
// encoded operator: the shared input is never mutated).
func (st *Stmt) applyProject(ctx context.Context, fr *frep.Enc) (*frep.Enc, error) {
	if st.project == nil {
		return fr, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return fplan.ApplyEnc(fplan.Project{Attrs: st.project}, fr)
}
