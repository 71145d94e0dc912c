package fdb

import (
	"context"
	"fmt"
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
// the data-independent part of query evaluation once per query shape —
// clause validation, f-tree search, locating each selection in its input,
// the path-sort permutations — and reads no tuple; the plan cache hands the
// statement to every later Prepare of the shape. Each Exec binds
// parameters, brings the inputs up to date and builds the factorised
// result.
//
// A Stmt prepared from the database follows it: each Exec reads the
// relations' current versions, folding the inputs (constant selections +
// path sort + dedup) from nothing on first use and folding any delta batches
// committed since into its sorted snapshots afterwards; the encoded
// representation is rebuilt from those snapshots by the next execution that
// needs it — the compiled plan is immutable and never recompiles. A Stmt
// that Snapshot.Bind returns is pinned: it reads the snapshot's versions and
// fails loudly once the snapshot is closed. Exec is safe for concurrent
// callers.
//
// Who may touch what: the embedded plan is written by DB.plan and by nobody
// after it; src is set by DB.plan (or pin) and never replaced. The data
// behind src is published by refresh alone, under src.refreshMu, and read
// with one atomic load — and src may be shared: every live statement of the
// database whose inputs, baked constant selections and f-tree are equal
// holds the same one (see srcRegistry), and so does every statement bound to
// one snapshot with that srcKey (see Snapshot.holder), so a write is folded,
// and a memoised encoding rebuilt, once for all of them, whatever their
// projection, ordering, limits or aggregates.
type Stmt struct {
	stmtPlan
	snap *Snapshot // non-nil: pinned to this snapshot's versions
	src  *stmtSrc  // the data holder: the database's for its key, or the snapshot's
}

// stmtSrc is the one mutable part of a statement: its current data, nil
// until the first execution loads it, and the lock refresh publishes the
// next version under. Statements that share a holder share everything in it.
// A holder also carries its srcKey and input names, which name its encoding
// in a snapshot file: SaveSnapshot writes the database's holders, and any
// holder, live or pinned, adopts a carried arena under its key.
type stmtSrc struct {
	serial uint64 // per database, unique to this holder (srcRegistry.mint)
	key    string
	names  []string

	data      atomic.Pointer[stmtData]
	refreshMu sync.Mutex
}

// stmtPlan is a statement's compiled plan: everything DB.plan decided from
// the query and the schemas, immutable from then on — it holds no tuple and
// no version — and shared by value with the statement's pinned derivatives
// (see pin).
type stmtPlan struct {
	db      *DB
	clauses *spec                // the compiled clauses, checked against the attributes' kinds per Exec
	params  []string             // distinct parameter names, declaration order
	project []relation.Attribute // nil: keep all attributes
	groupBy []relation.Attribute // aggregation statements: group-by attributes
	aggs    []frep.AggSpec       // aggregation statements: aggregates to compute
	outClauses

	tree        *ftree.T    // the f-tree planTree chose
	inputs      []stmtInput // per-input selections and path-sort permutations for that tree
	search      PlanSearch  // how planTree ended for that tree
	order       OrderPlan   // how the ORDER BY leaves the statement
	orderedCost float64     // OrderDeclined: s(T) of the order-compatible tree
}

// stmtInput is one compiled input relation: its backing store, the
// selections on its columns (constants and parameters; see match), and the
// column permutation of its f-tree path sort (for in-order delta merging).
type stmtInput struct {
	store   *delta.Store
	sels    []boundSel
	sortIdx []int
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
// same pre-projection encoding — the statement has no Param, so every
// selection is baked into its input — so that the encoding is built once
// per version, carried by SaveSnapshot and adopted from a snapshot file.
// Statements with parameters filter and build per call, because the
// unselected encoding they would otherwise keep can be two orders of
// magnitude larger than their sorted inputs (22.7 MB against 0.16 MB for a
// one-item point lookup over the 4000-order retailer join).
func (p *stmtPlan) memoises() bool { return len(p.params) == 0 }

// match compiles input i's selections into one tuple filter, nil when none
// applies: its constants when args is nil (at load and at delta fold), its
// parameters bound to args otherwise (at Exec). It is the one way a
// statement applies a selection, and it compiles each through selPred when
// called, after the state it filters was read.
func (st *Stmt) match(i int, args map[string]interface{}) func(relation.Tuple) bool {
	var f func(relation.Tuple) bool
	for _, s := range st.inputs[i].sels {
		p, isParam := s.val.(ParamValue)
		if isParam != (args != nil) {
			continue
		}
		val := s.val
		if isParam {
			val = args[p.name]
		}
		pred, _ := st.db.selPred(s.op, val)
		col, rest := s.col, f
		f = func(t relation.Tuple) bool { return pred(t[col]) && (rest == nil || rest(t)) }
	}
	return f
}

// NamedArg binds a parameter name to a value for Exec; create it with Arg.
type NamedArg struct {
	Name  string
	Value interface{}
}

// Arg binds the named Param placeholder to a value (int, int64 or string).
func Arg(name string, value interface{}) NamedArg { return NamedArg{Name: name, Value: value} }

// Prepare compiles a select-project-join query into a reusable statement.
// Selections whose value is a Param placeholder are bound per Exec; every
// other clause is fixed at Prepare time, and every other selection is baked
// into its input, so a statement memoises its encoding unless it has a
// Param. Prepare reads the query and the schemas only; the statement's
// first execution loads its inputs.
//
// The statement comes from the plan cache, looked up by the query's
// canonical fingerprint — parameter placeholders included — so every caller
// preparing the same query shape (the server's connections, most
// prominently) gets the same *Stmt and one f-tree search. Statements are
// safe for concurrent Exec, so the sharing is free; an entry stays cached
// until the LRU evicts it (the catalogue only grows and binding refuses
// unknown relations, so no later Create or LoadTSV can change what a cached
// plan reads). The data goes further than the plan: every live statement
// whose inputs, baked constant selections and f-tree are equal — across
// fingerprints — shares one set of refreshed inputs and one memoised
// encoded representation, which a snapshot file carries under that data
// holder's key.
func (db *DB) Prepare(clauses ...Clause) (*Stmt, error) {
	s, err := compileSpec(modeQuery, clauses)
	if err != nil {
		return nil, err
	}
	return db.cachedStmt(s)
}

// pin is Snapshot.Bind's body: it derives a statement bound to the
// snapshot's pinned versions from a prepared live statement — a copy of the
// plan (f-tree, parameter slots, baked filters and sort permutations are
// shared) with the snapshot's data holder for the statement's key, loaded
// once from the snapshot's states by the first execution of any statement
// bound to it. Clause validation and f-tree search are never repeated per
// (statement, snapshot) pair. The pinned statement fails loudly once the
// snapshot is closed.
func (st *Stmt) pin(snap *Snapshot) (*Stmt, error) {
	if st.snap != nil {
		return nil, fmt.Errorf("fdb: statement is already pinned to a snapshot")
	}
	for _, in := range st.inputs {
		if _, ok := snap.states[in.store.Name]; !ok {
			return nil, fmt.Errorf("fdb: relation %q created after the snapshot", in.store.Name)
		}
	}
	src := snap.holder(st.src.key, st.src.names)
	if src == nil {
		return nil, errSnapshotClosed
	}
	return &Stmt{stmtPlan: st.stmtPlan, snap: snap, src: src}, nil
}

// Params lists the statement's parameter names in declaration order.
func (st *Stmt) Params() []string { return append([]string(nil), st.params...) }

// Aggregates lists the statement's aggregate column labels in declaration
// order; empty for a plain select-project-join statement. Statements with
// aggregates run through ExecAgg (QueryAgg), all others through Exec
// (Query); the other method refuses them.
func (st *Stmt) Aggregates() []string {
	out := make([]string, len(st.aggs))
	for i, s := range st.aggs {
		out[i] = s.Label()
	}
	return out
}

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
		return nil, fmt.Errorf("fdb: statement computes aggregates; use ExecAgg (or QueryAgg)")
	}
	fr, err := st.buildContext(ctx, args)
	if err != nil {
		return nil, err
	}
	return newResult(st.db, fr).dress(st.outClauses)
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
		return nil, fmt.Errorf("fdb: statement has no aggregates; use Exec (or Query)")
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

// state returns the version of input i the statement reads: its snapshot's
// for a pinned statement, the store's current one for a live statement. It
// is the only place the data path tells the two apart.
func (st *Stmt) state(i int) *delta.State {
	if st.snap != nil {
		return st.snap.states[st.inputs[i].store.Name]
	}
	return st.inputs[i].store.State()
}

// current reports whether d is what the statement should execute over: the
// data reflecting the version of every input the statement reads.
func (st *Stmt) current(d *stmtData) bool {
	if d == nil {
		return false
	}
	for i := range st.inputs {
		if st.state(i).Ver != d.vers[i] {
			return false
		}
	}
	return true
}

// refresh is stage three of the lifecycle and the only place a statement's
// data arrives: it returns the input snapshots at the versions the
// statement reads (state). The fast path is len(inputs) atomic loads;
// behind them, the slow path captures a consistent cut and brings every
// changed input up to it with one delta.Fold: the held tuples and the net
// delta since them, or — no data yet, or a history compacted away beneath
// the held version — nothing and the whole live relation, filtered by the
// baked constant selections and merged in the input's path order. The
// published data carries tuples only: its encoding is nil until cachedEnc
// rebuilds it. A cancelled ctx aborts between inputs and publishes nothing.
// Statements sharing the holder fold a write once between them: whichever
// comes first publishes, and the rest find the data current behind
// refreshMu.
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
	// A consistent cut: no writer commits between the state loads.
	states := make([]*delta.State, len(st.inputs))
	st.db.mu.RLock()
	for i := range st.inputs {
		states[i] = st.state(i)
	}
	st.db.mu.RUnlock()

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
		var held *relation.Relation
		var adds, dels []relation.Tuple
		ok := false
		if d != nil {
			held = d.rels[i]
			adds, dels, ok = states[i].NetSince(d.vers[i])
		}
		if !ok {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			held = relation.New(in.store.Name, in.store.Schema)
			adds, dels = states[i].Live().Tuples, nil
		}
		nd.rels[i] = delta.Fold(held, adds, dels, st.match(i, nil), in.sortIdx)
	}
	st.src.data.Store(nd)
	return nd, nil
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
	// through the read-only dictionary path (selPred), never by minting a
	// code for it.
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
		if kindOf(a.Value) == relation.KindNone {
			return nil, fmt.Errorf("fdb: unsupported value type %T", a.Value)
		}
		bound[a.Name] = a.Value
	}
	for _, p := range st.params {
		if _, ok := bound[p]; !ok {
			return nil, fmt.Errorf("fdb: missing parameter %q: bind it through Exec (Query and QueryAgg bind none)", p)
		}
	}

	d, err := st.refresh(ctx)
	if err != nil {
		return nil, err
	}
	if err := st.db.checkKinds(st.clauses, bound); err != nil {
		return nil, err
	}

	if st.memoises() {
		fr, err := st.cachedEnc(ctx, d)
		if err != nil {
			return nil, err
		}
		return st.applyProject(ctx, fr)
	}

	// Filter the inputs by this execution's parameter bindings. Filter
	// shares tuple storage and preserves order, so the filtered inputs stay
	// sorted and the shared snapshots stay untouched.
	rels := append([]*relation.Relation(nil), d.rels...)
	for i := range rels {
		if f := st.match(i, bound); f != nil {
			rels[i] = rels[i].Filter(f)
		}
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
		// under exactly this holder's key at exactly these input versions;
		// adopting it skips the build entirely (the arena stays in the
		// mapped file).
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
