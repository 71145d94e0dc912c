package fdb

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"weak"

	"repro/internal/core"
	"repro/internal/csvio"
	"repro/internal/delta"
	"repro/internal/fplan"
	"repro/internal/frep"
	"repro/internal/relation"
	"repro/internal/store"
)

// DB is an in-memory factorised database: named relations plus a shared
// string dictionary. Each relation lives in a delta.Store — an append-only
// chain of immutable versions (base snapshot + delta batches) behind an
// atomic pointer — so readers never block writers: Query, Prepare and
// Stmt.Exec read a consistent version lock-free while Insert/Delete/Upsert
// append under the write lock, and Snapshot pins a database-wide version
// for as long as the caller holds it.
type DB struct {
	mu     sync.RWMutex
	dict   *relation.Dict
	stores map[string]*delta.Store
	ord    []string
	ver    uint64 // global write version; bumps once per committed mutation
	cache  *planCache
	// srcs hands statements that compile to the same inputs, baked filters
	// and f-tree one data holder (see srcRegistry).
	srcs *srcRegistry
	// snaps counts open snapshots (diagnostics; see OpenSnapshots).
	snaps atomic.Int64

	// budgetFallbacks counts the searches planBudget and fplanBudget cut
	// short.
	budgetFallbacks atomic.Uint64

	// adopted indexes the pre-built encodings a snapshot file carried, by
	// plan fingerprint. Populated once by OpenSnapshotFile before the DB is
	// handed out and read-only afterwards, so lookups take no lock. backing
	// roots the opened store.File: adopted arenas and relation tuples alias
	// its (possibly memory-mapped) bytes, which must stay mapped for the
	// lifetime of the database — the file is never unmapped through the DB.
	adopted map[string]*adoptedEnc
	backing *store.File
}

// adoptedEnc is one snapshot-carried encoding: the statement fingerprint it
// was memoised under maps to it, inputs records the (relation, version)
// pairs the build reflected, and enc's arena points into the snapshot file.
type adoptedEnc struct {
	inputs []store.Input
	enc    *frep.Enc
}

// New returns an empty database.
func New() *DB {
	return &DB{
		dict:   relation.NewDict(),
		stores: map[string]*delta.Store{},
		cache:  newPlanCache(),
		srcs:   &srcRegistry{m: map[string]weak.Pointer[stmtSrc]{}},
	}
}

// Create adds a relation with the given attribute names (unqualified; they
// are stored as "name.attr").
func (db *DB) Create(name string, attrs ...string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.stores[name]; ok {
		return fmt.Errorf("fdb: relation %q already exists", name)
	}
	if len(attrs) == 0 {
		return fmt.Errorf("fdb: relation %q needs at least one attribute", name)
	}
	sch := make(relation.Schema, len(attrs))
	for i, a := range attrs {
		sch[i] = relation.Attribute(name + "." + a)
	}
	if err := sch.Validate(); err != nil {
		return err
	}
	db.ver++
	db.stores[name] = delta.NewStore(name, sch, db.ver)
	db.ord = append(db.ord, name)
	return nil
}

// MustCreate is Create, panicking on error (for examples and tests).
func (db *DB) MustCreate(name string, attrs ...string) {
	if err := db.Create(name, attrs...); err != nil {
		panic(err)
	}
}

// Insert adds one tuple; values may be int, int64 or string (strings are
// dictionary-encoded). Writes commit as delta batches: running statements
// and open snapshots keep reading the version they hold, while statements
// executed after Insert returns see the new tuple (read-your-writes —
// prepared statements refresh their inputs incrementally per Exec).
func (db *DB) Insert(name string, values ...interface{}) error {
	return db.InsertBatch(name, [][]interface{}{values})
}

// MustInsert is Insert, panicking on error.
func (db *DB) MustInsert(name string, values ...interface{}) {
	if err := db.Insert(name, values...); err != nil {
		panic(err)
	}
}

// InsertBatch adds many tuples in one committed batch (one version bump,
// one delta for readers to merge). Set semantics: inserting a tuple that is
// already present is a no-op.
func (db *DB) InsertBatch(name string, rows [][]interface{}) error {
	return db.mutate(name, rows, nil, 0)
}

// Delete removes the exact tuple (all columns must match); removing an
// absent tuple is a no-op, per set semantics.
func (db *DB) Delete(name string, values ...interface{}) error {
	return db.DeleteBatch(name, [][]interface{}{values})
}

// DeleteBatch removes many tuples in one committed batch.
func (db *DB) DeleteBatch(name string, rows [][]interface{}) error {
	return db.mutate(name, nil, rows, 0)
}

// Upsert inserts the tuple, first removing every live tuple that agrees
// with it on the first keyCols columns (the relation's key prefix). One
// committed batch: removals apply before the insertion.
func (db *DB) Upsert(name string, keyCols int, values ...interface{}) error {
	return db.UpsertBatch(name, keyCols, [][]interface{}{values})
}

// UpsertBatch upserts many tuples in one committed batch.
func (db *DB) UpsertBatch(name string, keyCols int, rows [][]interface{}) error {
	if keyCols < 1 {
		return fmt.Errorf("fdb: upsert needs at least one key column, got %d", keyCols)
	}
	return db.mutate(name, rows, nil, keyCols)
}

// mutate is the shared write path: encode the rows, derive the delta batch
// (upserts scan the live version for key-prefix matches to remove), bump
// the global version and publish the relation's successor state.
func (db *DB) mutate(name string, addRows, delRows [][]interface{}, upsertKey int) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	s, ok := db.stores[name]
	if !ok {
		return fmt.Errorf("fdb: unknown relation %q", name)
	}
	if upsertKey > len(s.Schema) {
		return fmt.Errorf("fdb: relation %q has arity %d, upsert key has %d columns", name, len(s.Schema), upsertKey)
	}
	encodeRows := func(rows [][]interface{}) ([]relation.Tuple, error) {
		out := make([]relation.Tuple, 0, len(rows))
		for _, row := range rows {
			if len(row) != len(s.Schema) {
				return nil, fmt.Errorf("fdb: relation %q has arity %d, got %d values", name, len(s.Schema), len(row))
			}
			t := make(relation.Tuple, len(row))
			for i, v := range row {
				val, err := db.encode(v)
				if err != nil {
					return nil, err
				}
				t[i] = val
			}
			out = append(out, t)
		}
		return out, nil
	}
	adds, err := encodeRows(addRows)
	if err != nil {
		return err
	}
	dels, err := encodeRows(delRows)
	if err != nil {
		return err
	}
	if upsertKey > 0 {
		// Two rows with one key would each survive the other's displacement,
		// leaving the key twice: the batch is ambiguous, so refuse it whole.
		keys := make(map[string]bool, len(adds))
		for i, a := range adds {
			k := fmt.Sprint(a[:upsertKey])
			if keys[k] {
				return fmt.Errorf("fdb: upsert batch on %q has two rows with key %v", name, addRows[i][:upsertKey])
			}
			keys[k] = true
		}
		// Remove the live tuples each upserted tuple displaces. Within the
		// batch removals apply before additions, so upserting an unchanged
		// tuple keeps it.
		live := s.State().Live()
		for _, a := range adds {
			for _, t := range live.Tuples {
				match := true
				for c := 0; c < upsertKey; c++ {
					if t[c] != a[c] {
						match = false
						break
					}
				}
				if match {
					dels = append(dels, t)
				}
			}
		}
	}
	if len(adds) == 0 && len(dels) == 0 {
		return nil
	}
	db.ver++
	s.Apply(adds, dels, db.ver)
	return nil
}

// Compact folds the named relation's delta chain into a fresh materialised
// base at the current version. Open snapshots and running statements keep
// their pinned versions (their arenas stay alive for as long as they are
// referenced); statements whose held version predates the new base
// load the new base on their next Exec instead of merging.
func (db *DB) Compact(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	s, ok := db.stores[name]
	if !ok {
		return fmt.Errorf("fdb: unknown relation %q", name)
	}
	s.Compact()
	return nil
}

// Version returns the database's current write version (bumps once per
// committed mutation).
func (db *DB) Version() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.ver
}

// OpenSnapshots reports the number of snapshots pinned and not yet closed.
func (db *DB) OpenSnapshots() int { return int(db.snaps.Load()) }

// LoadTSV reads one relation from a tab-separated file (first line
// "Name<TAB>attr…", see internal/csvio) into the database and returns its
// name.
func (db *DB) LoadTSV(path string) (string, error) {
	rel, err := csvio.ReadFile(path, db.dict)
	if err != nil {
		return "", err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.stores[rel.Name]; ok {
		return "", fmt.Errorf("fdb: relation %q already exists", rel.Name)
	}
	db.ver++
	db.stores[rel.Name] = delta.FromRelation(rel, db.ver)
	db.ord = append(db.ord, rel.Name)
	return rel.Name, nil
}

// Relations lists the relation names in creation order.
func (db *DB) Relations() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]string(nil), db.ord...)
}

// Relation exposes a snapshot of a stored relation at its current version.
// The snapshot has its own tuple-slice header but shares tuple storage with
// the version chain — treat it as read-only; do not sort, dedup or
// otherwise mutate it in place.
func (db *DB) Relation(name string) (*relation.Relation, bool) {
	db.mu.RLock()
	s, ok := db.stores[name]
	db.mu.RUnlock()
	if !ok {
		return nil, false
	}
	live := s.State().Live()
	snap := relation.New(live.Name, live.Schema)
	snap.Tuples = live.Tuples[:len(live.Tuples):len(live.Tuples)]
	return snap, true
}

// Dict exposes the database dictionary (for rendering). The dictionary is
// safe for concurrent use.
func (db *DB) Dict() *relation.Dict { return db.dict }

// Query compiles and runs a select-project-join query and returns its
// factorised result: it finds an f-tree of minimal cost s(T) for the query,
// builds the factorised representation directly from the input relations,
// then applies constant selections and the projection.
//
// Query is a thin wrapper over the prepared-statement machinery: the
// compiled plan is looked up in (and inserted into) an internal LRU cache
// keyed by the query's canonical fingerprint, so repeating the same query
// skips the f-tree search, and the cached statement's loaded inputs skip
// the dedup and sort. Writes do not evict cached plans — a cached statement
// refreshes its data incrementally from the relations' delta chains per
// execution. CacheStats exposes the hit counters. Queries with Param
// placeholders are rejected — use Prepare and Exec to bind them.
func (db *DB) Query(clauses ...Clause) (*Result, error) {
	s, err := adhocSpec(clauses, false)
	if err != nil {
		return nil, err
	}
	st, err := db.cachedStmt(s)
	if err != nil {
		return nil, err
	}
	return st.Exec()
}

// QueryAgg compiles and runs an aggregation query — From/Eq/Cmp clauses
// plus at least one Agg, optionally GroupBy — and returns its aggregate
// rows. The query compiles like Query (shared plan cache, keyed by a
// fingerprint extended with the grouping and aggregate list; the compiled
// f-tree is restructured so group-by attributes sit above aggregated
// ones), then the aggregates are evaluated in a single pass over the
// factorised result, never over its flattening.
func (db *DB) QueryAgg(clauses ...Clause) (*AggResult, error) {
	s, err := adhocSpec(clauses, true)
	if err != nil {
		return nil, err
	}
	st, err := db.cachedStmt(s)
	if err != nil {
		return nil, err
	}
	return st.ExecAgg()
}

// adhocSpec compiles the clauses of an execute-immediately call — Query or
// QueryAgg (agg), on the database or on a snapshot: the query's shape must
// be the one the call returns, and there is nowhere to bind a parameter.
func adhocSpec(clauses []Clause, agg bool) (*spec, error) {
	s, err := compileSpec(modeQuery, clauses)
	if err != nil {
		return nil, err
	}
	switch {
	case agg && len(s.aggs) == 0:
		return nil, fmt.Errorf("fdb: QueryAgg needs at least one Agg clause")
	case !agg && len(s.aggs) > 0:
		return nil, fmt.Errorf("fdb: query computes aggregates; use QueryAgg")
	}
	if ps := s.params(); len(ps) > 0 {
		return nil, fmt.Errorf("fdb: unbound parameter %q: use Prepare and Exec for parameterised queries", ps[0])
	}
	return s, nil
}

// PrepareCached is Prepare through the plan cache: the compiled statement
// is looked up by the query's canonical fingerprint — parameter
// placeholders included — so many callers preparing the same query shape
// (the server front-end's connections, most prominently) share one
// compiled plan. Statements are safe for concurrent Exec, so the sharing is
// free; an entry stays cached until the LRU evicts it (the catalogue only
// grows and binding refuses unknown relations, so no later Create or
// LoadTSV can change what a cached plan reads). The data goes further than
// the plan: every live statement whose inputs, baked constant selections
// and f-tree are equal — across fingerprints, cached or not — shares one
// set of refreshed inputs and one memoised encoded representation.
func (db *DB) PrepareCached(clauses ...Clause) (*Stmt, error) {
	s, err := compileSpec(modeQuery, clauses)
	if err != nil {
		return nil, err
	}
	return db.cachedStmt(s)
}

// cachedStmt resolves a compiled statement for the spec through the plan
// cache: bind, look the bound spec's fingerprint up, plan and insert on a
// miss. Cached statements stay hot across writes: each execution folds the
// pending deltas of its inputs into its snapshots, so the cache key needs no
// data-version component.
func (db *DB) cachedStmt(s *spec) (*Stmt, error) {
	b, err := db.bind(s)
	if err != nil {
		return nil, err
	}
	key := b.fingerprint()
	if ce, ok := db.cache.get(key); ok {
		return ce.stmt, nil
	}
	st, err := db.plan(b)
	if err != nil {
		return nil, err
	}
	st.fp = key
	db.cache.put(cacheEntry{key: key, stmt: st})
	return st, nil
}

// CacheStats returns the plan cache counters — Hits and Misses count
// lookups, statements and Where/Join f-plans alike, Entries is the current
// size — and BudgetFallbacks, the number of searches that exhausted their
// exploration budget: f-tree searches that kept the greedy tree (see
// planTree) and f-plan searches that kept the greedy plan (see planConds).
func (db *DB) CacheStats() CacheStats {
	cs := db.cache.stats()
	cs.BudgetFallbacks = db.budgetFallbacks.Load()
	return cs
}

// Parallelism returns the number of workers an execution's factorisation
// build and aggregation may use: runtime.GOMAXPROCS(0), read when the
// execution starts. GOMAXPROCS=1 runs the serial code paths.
func (db *DB) Parallelism() int { return runtime.GOMAXPROCS(0) }

// orderLess returns the value comparator ORDER BY uses, mirroring how
// results render: dictionary-decoded values compare lexicographically, plain
// integers numerically, and integers sort before dictionary strings. With an
// empty dictionary (pure integer data) it returns nil — native value order
// already is decoded order, so ordered iteration needs no permutations.
func (db *DB) orderLess() frep.ValueLess {
	// Snapshot the append-only dictionary once: every code in the result
	// predates this call, and the comparator runs O(N log N) times on the
	// sort paths — a lock round-trip per comparison would dominate.
	strs := db.dict.Snapshot()
	if len(strs) == 0 {
		return nil
	}
	return func(a, b relation.Value) bool {
		oka := a >= 0 && int(a) < len(strs)
		okb := b >= 0 && int(b) < len(strs)
		switch {
		case oka && okb:
			return strs[a] < strs[b]
		case !oka && !okb:
			return a < b
		default:
			return !oka
		}
	}
}

// selClass is how a selection's right-hand side compiles.
type selClass int

const (
	selConst   selClass = iota // a value code, permanent: bake it into the plan
	selDynamic                 // a string that needs the dictionary per execution (stringSelPred)
	selParam                   // a Param placeholder, bound per Exec
)

// classifySel is the one place that decides how a selection value compiles,
// for every surface that takes one (bind, Exec-time bindings, Result.Where). Integers are their own code. A string
// is a constant only as an equality on an already-encoded string — codes
// are permanent, so baking that is cache-safe; ranges (decoded order can
// gain strings) and unseen strings (they may gain a code) stay dynamic.
// Nothing here grows the dictionary: a query never mints a code for a
// constant the database has only ever compared against.
func (db *DB) classifySel(op fplan.Cmp, val interface{}) (selClass, relation.Value, error) {
	switch x := val.(type) {
	case ParamValue:
		return selParam, 0, nil
	case string:
		if c, ok := db.dict.Lookup(x); ok && (op == fplan.Eq || op == fplan.Ne) {
			return selConst, c, nil
		}
		return selDynamic, 0, nil
	}
	c, err := db.encode(val)
	return selConst, c, err
}

// selPred compiles an execution-time selection value (a bound parameter or
// a dynamic string constant) into a column predicate.
func (db *DB) selPred(op fplan.Cmp, val interface{}) (func(relation.Value) bool, error) {
	class, c, err := db.classifySel(op, val)
	if err != nil {
		return nil, err
	}
	if class == selConst {
		return core.ConstSel{Op: op, C: c}.Match, nil
	}
	return db.stringSelPred(op, val.(string)), nil
}

// encode turns a Go value into an engine Value, assigning a fresh dictionary
// code to an unseen string. It belongs on write paths only (Insert, Delete,
// Upsert): read paths — query constants, parameter binds — must go through
// classifySel instead, so that comparing against a string the
// database has never stored cannot grow the dictionary. The dictionary is
// internally synchronised, so encode is safe under either DB lock.
func (db *DB) encode(v interface{}) (relation.Value, error) {
	switch x := v.(type) {
	case int:
		return relation.Value(x), nil
	case int64:
		return relation.Value(x), nil
	case relation.Value:
		return x, nil
	case string:
		return db.dict.Encode(x), nil
	}
	return 0, fmt.Errorf("fdb: unsupported value type %T", v)
}

// stringSelPred compiles a string comparison into a value predicate with
// read-only dictionary semantics. Equality operators compare codes: an
// unknown constant matches nothing (EQ) or everything (NE) — the dictionary
// is never grown for it. Range operators compare in decoded lexicographic
// order — the same total order ORDER BY uses (see orderLess) — not in code
// (insertion) order; values outside the dictionary sort before all strings.
func (db *DB) stringSelPred(op fplan.Cmp, s string) func(relation.Value) bool {
	switch op {
	case fplan.Eq:
		c, ok := db.dict.Lookup(s)
		if !ok {
			return func(relation.Value) bool { return false }
		}
		return func(v relation.Value) bool { return v == c }
	case fplan.Ne:
		c, ok := db.dict.Lookup(s)
		if !ok {
			return func(relation.Value) bool { return true }
		}
		return func(v relation.Value) bool { return v != c }
	}
	// One dictionary snapshot for the whole scan: every code in the data
	// predates the predicate's construction.
	strs := db.dict.Snapshot()
	return func(v relation.Value) bool {
		c := -1 // non-string values sort before all strings, as in orderLess
		if v >= 0 && int(v) < len(strs) {
			c = strings.Compare(strs[v], s)
		}
		switch op {
		case fplan.Lt:
			return c < 0
		case fplan.Le:
			return c <= 0
		case fplan.Gt:
			return c > 0
		case fplan.Ge:
			return c >= 0
		}
		return false
	}
}
