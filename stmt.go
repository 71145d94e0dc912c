package fdb

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/delta"
	"repro/internal/fbuild"
	"repro/internal/fplan"
	"repro/internal/frep"
	"repro/internal/ftree"
	"repro/internal/relation"
)

// Stmt is a compiled, reusable select-project-join statement. Prepare pays
// the data-independent part of query evaluation once — clause validation,
// f-tree search, the per-input filters and path-sort permutations — and
// reads no tuple; each Exec binds parameters, brings the inputs up to date
// and builds the factorised result.
//
// A Stmt prepared from the database follows it: each Exec reads the
// relations' current versions, loading the inputs (dedup + constant
// pre-filter + path sort) on first use and folding any delta batches
// committed since into its sorted snapshots afterwards; the encoded
// representation is rebuilt from those snapshots by the next execution that
// needs it — the compiled plan is immutable and never recompiles. A Stmt
// prepared from a Snapshot is pinned: it reads the snapshot's versions and
// fails loudly once the snapshot is closed. Exec is safe for concurrent
// callers.
//
// Who may touch what: the embedded plan is written by DB.plan and by nobody
// after it; fp is set by cachedStmt before the statement is shared; src is
// set by DB.plan (or pin) and never replaced. The data behind src is
// published by refresh alone, under src.refreshMu, and read with one atomic
// load — and src may be shared: every live statement of the database whose
// inputs, baked constant selections and f-tree are equal holds the same one
// (see srcRegistry), so a write is folded, and a memoised encoding rebuilt,
// once for all of them, whatever their projection, ordering, limits or
// aggregates.
type Stmt struct {
	stmtPlan
	fp   string    // plan-cache fingerprint; "" when not cached
	snap *Snapshot // non-nil: pinned to this snapshot's versions
	src  *stmtSrc  // the data holder; pinned statements own theirs
}

// stmtSrc is the one mutable part of a statement: its current data, nil
// until the first execution loads it, and the lock refresh publishes the
// next version under. Statements that share a holder share everything in it.
type stmtSrc struct {
	data      atomic.Pointer[stmtData]
	refreshMu sync.Mutex
}

// stmtPlan is a statement's compiled plan: everything DB.plan decided from
// the query and the schemas, immutable from then on — it holds no tuple and
// no version — and shared by value with the statement's pinned derivatives
// (see pin).
type stmtPlan struct {
	db      *DB
	lsels   []boundSel           // late selections (class != selConst): resolved per Exec
	params  []string             // distinct parameter names, declaration order
	project []relation.Attribute // nil: keep all attributes
	groupBy []relation.Attribute // aggregation statements: group-by attributes
	aggs    []frep.AggSpec       // aggregation statements: aggregates to compute
	outClauses

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
// Only refresh creates one, and it never changes after it is published. The
// encoded representation — the pre-projection result that the inputs, their
// selections and the f-tree fix — is kept here for the statements that
// memoise one, built from rels by the first execution at this version
// (cachedEnc) and served to every statement sharing the holder; reads and
// writes of enc go through mu.
type stmtData struct {
	rels []*relation.Relation
	vers []uint64

	mu  sync.Mutex
	enc *frep.Enc // cached pre-projection build; nil until needed
}

// memoises reports whether every execution at one input version yields the
// same pre-projection encoding — nothing is selected at execution time — so
// that the encoding is built once per version, carried by SaveSnapshot and
// adopted from a snapshot file. Statements with late selections filter and
// build per call, because the unselected encoding they would otherwise keep
// can be two orders of magnitude larger than their sorted inputs (22.7 MB
// against 0.16 MB for a one-item point lookup over the 4000-order retailer
// join).
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
// and bound per Exec; all other clauses are fixed at Prepare time. Prepare
// reads the query and the schemas only; the statement's first execution
// loads its inputs.
func (db *DB) Prepare(clauses ...Clause) (*Stmt, error) {
	s, err := compileSpec(modeQuery, clauses)
	if err != nil {
		return nil, err
	}
	b, err := db.bind(s)
	if err != nil {
		return nil, err
	}
	return db.plan(b)
}

// pin derives a statement bound to the snapshot's pinned versions from an
// already-compiled live statement: a copy of the plan — f-tree, parameter
// slots, baked filters and sort permutations are shared — whose data is
// loaded, once, from the snapshot's states by its first execution. Clause
// validation and f-tree search are never repeated per (statement, snapshot)
// pair. The pinned statement fails loudly once the snapshot is closed.
func (st *Stmt) pin(snap *Snapshot) (*Stmt, error) {
	if st.snap != nil {
		return nil, fmt.Errorf("fdb: statement is already pinned to a snapshot")
	}
	if snap.isClosed() {
		return nil, errSnapshotClosed
	}
	for _, in := range st.inputs {
		if _, ok := snap.states[in.store.Name]; !ok {
			return nil, fmt.Errorf("fdb: relation %q created after the snapshot", in.store.Name)
		}
	}
	return &Stmt{stmtPlan: st.stmtPlan, snap: snap, src: &stmtSrc{}}, nil
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
	return st.db.dress(fr, st.outClauses)
}

// ExecAgg runs a compiled aggregation statement (one with Agg clauses,
// optionally GroupBy) and returns its aggregate rows. The aggregates are
// computed in one pass over the factorised result, in time proportional to
// its factorised size — the flat relation is never enumerated. Safe for
// concurrent callers.
func (st *Stmt) ExecAgg(args ...NamedArg) (*AggResult, error) {
	return st.ExecAggContext(context.Background(), args...)
}

// ExecAggContext is ExecAgg with cancellation: the build, the baked
// projection and the aggregation pass observe ctx and abort with its error.
func (st *Stmt) ExecAggContext(ctx context.Context, args ...NamedArg) (*AggResult, error) {
	if len(st.aggs) == 0 {
		return nil, fmt.Errorf("fdb: statement has no aggregates; use Exec")
	}
	fr, err := st.buildContext(ctx, args)
	if err != nil {
		return nil, err
	}
	rows, err := fr.AggregateParallelContext(ctx, st.groupBy, st.aggs, st.db.Parallelism())
	if err != nil {
		return nil, err
	}
	return &AggResult{db: st.db, groupBy: st.groupBy, specs: st.aggs, rows: rows}, nil
}

// current reports whether d is what the statement should execute over: any
// loaded data for a pinned statement, the data reflecting every input
// store's current version for a live one.
func (st *Stmt) current(d *stmtData) bool {
	if d == nil {
		return false
	}
	if st.snap != nil {
		return true
	}
	for i := range st.inputs {
		if st.inputs[i].store.State().Ver != d.vers[i] {
			return false
		}
	}
	return true
}

// refresh is stage three of the lifecycle and the only place a statement's
// data arrives: it returns the input snapshots at the relations' current
// versions (a pinned statement: at its snapshot's). The fast path is
// len(inputs) atomic loads; behind them, the slow path captures a consistent
// cut and brings every changed input up to it. An input with nothing to
// carry forward — no data yet, or a history compacted away beneath the held
// version — is loaded wholesale; otherwise its net delta is folded into the
// sorted snapshot with a linear merge. The published data carries tuples
// only: its encoding is nil until cachedEnc rebuilds it. A cancelled ctx
// aborts between inputs and publishes nothing. Statements sharing the holder
// fold a write once between them: whichever comes first publishes, and the
// rest find the data current behind refreshMu.
func (st *Stmt) refresh(ctx context.Context) (*stmtData, error) {
	d := st.src.data.Load()
	if st.current(d) {
		return d, nil
	}
	st.src.refreshMu.Lock()
	defer st.src.refreshMu.Unlock()
	d = st.src.data.Load()
	if st.current(d) {
		return d, nil
	}
	// A consistent cut: the snapshot's, or one no writer commits into
	// between the state loads.
	states := make([]*delta.State, len(st.inputs))
	if st.snap != nil {
		for i, in := range st.inputs {
			states[i] = st.snap.states[in.store.Name]
		}
	} else {
		st.db.mu.RLock()
		for i, in := range st.inputs {
			states[i] = in.store.State()
		}
		st.db.mu.RUnlock()
	}

	nd := &stmtData{
		rels: make([]*relation.Relation, len(st.inputs)),
		vers: make([]uint64, len(st.inputs)),
	}
	for i, in := range st.inputs {
		nd.vers[i] = states[i].Ver
		if d != nil && states[i].Ver == d.vers[i] {
			nd.rels[i] = d.rels[i]
			continue
		}
		var adds, dels []relation.Tuple
		ok := false
		if d != nil {
			adds, dels, ok = states[i].NetSince(d.vers[i])
		}
		if !ok {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			nd.rels[i] = st.load(i, states[i])
			continue
		}
		if in.filter != nil {
			adds = filterTuples(adds, in.filter)
			dels = filterTuples(dels, in.filter)
		}
		nd.rels[i] = mergeSortedDelta(d.rels[i], adds, dels, in.sortIdx)
	}
	st.src.data.Store(nd)
	return nd, nil
}

// load derives input i's snapshot from a state: a private tuple slice over
// the state's shared (read-only) tuples, pre-filtered by the baked constant
// selections, sorted once in the input's f-tree path order and deduped.
// SortBy breaks ties on every remaining column, so duplicates are adjacent.
func (st *Stmt) load(i int, state *delta.State) *relation.Relation {
	live := state.Live()
	var r *relation.Relation
	if f := st.inputs[i].filter; f != nil {
		r = live.Filter(f)
	} else {
		r = relation.New(live.Name, live.Schema)
		r.Tuples = append(make([]relation.Tuple, 0, len(live.Tuples)), live.Tuples...)
	}
	r.SortBy(st.inputs[i].sortAttrs)
	out := r.Tuples[:0]
	for _, t := range r.Tuples {
		if len(out) == 0 || t.Compare(out[len(out)-1]) != 0 {
			out = append(out, t)
		}
	}
	r.Tuples = out
	return r
}

// filterTuples returns the tuples passing f: ts itself when all do
// (allocation-free), otherwise a fresh slice — ts is a delta shared with
// every other reader and is never written.
func filterTuples(ts []relation.Tuple, f func(relation.Tuple) bool) []relation.Tuple {
	for i, t := range ts {
		if f(t) {
			continue
		}
		keep := append(make([]relation.Tuple, 0, len(ts)-1), ts[:i]...)
		for _, t := range ts[i+1:] {
			if f(t) {
				keep = append(keep, t)
			}
		}
		return keep
	}
	return ts
}

// mergeSortedDelta applies a net delta to a sorted, deduplicated snapshot
// with one linear merge in the snapshot's sort order (the column
// permutation idx), returning the new snapshot (sharing tuple storage with
// the old). Additions already present and removals of absent tuples are
// no-ops.
func mergeSortedDelta(old *relation.Relation, adds, dels []relation.Tuple, idx []int) *relation.Relation {
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
	out := relation.New(old.Name, old.Schema)
	out.Tuples = make([]relation.Tuple, 0, len(old.Tuples)+len(adds))
	ai, di := 0, 0
	for _, t := range old.Tuples {
		for di < len(dels) && cmp(dels[di], t) < 0 {
			di++ // removal of an absent tuple: no-op
		}
		if di < len(dels) && cmp(dels[di], t) == 0 {
			di++
			continue
		}
		for ai < len(adds) && cmp(adds[ai], t) < 0 {
			out.Tuples = append(out.Tuples, adds[ai])
			ai++
		}
		if ai < len(adds) && cmp(adds[ai], t) == 0 {
			ai++ // addition of a present tuple: no-op
		}
		out.Tuples = append(out.Tuples, t)
	}
	out.Tuples = append(out.Tuples, adds[ai:]...)
	return out
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

	d, err := st.refresh(ctx)
	if err != nil {
		return nil, err
	}

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
	// morsel-parallel when GOMAXPROCS allows it.
	fr, err := fbuild.BuildEncParallelContext(ctx, rels, st.tree.Clone(), st.db.Parallelism())
	if err != nil {
		return nil, err
	}
	return st.applyProject(ctx, fr)
}

// cachedEnc returns d's memoised pre-projection encoding, building it on
// first use. Encoded representations are immutable, so handing the same
// *Enc to every Exec at this version, of every statement sharing the
// holder, is free sharing, not aliasing.
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
