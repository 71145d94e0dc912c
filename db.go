package fdb

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
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
// string dictionary. Each attribute has one kind, integer or string, fixed
// by the first write into its relation (see kinds). Each relation lives in
// a delta.Store — an append-only chain of immutable versions (base
// snapshot + delta batches) behind an atomic pointer — so readers never
// block writers: Query, Prepare and Stmt.Exec read a consistent version
// lock-free while Insert/Delete/Upsert append under the write lock, and
// Snapshot pins a database-wide version for as long as the caller holds it.
type DB struct {
	mu     sync.RWMutex
	dict   *relation.Dict
	stores map[string]*delta.Store
	ord    []string
	ver    uint64 // global write version; bumps once per committed mutation
	cache  *planCache
	// attrKinds is each written attribute's kind: an immutable map, which a
	// write that fixes a kind replaces under mu before it publishes data.
	attrKinds atomic.Pointer[map[relation.Attribute]relation.Kind]
	// srcs hands statements that compile to the same inputs, baked filters
	// and f-tree one data holder (see srcRegistry).
	srcs *srcRegistry
	// snaps counts open snapshots (diagnostics; see OpenSnapshots).
	snaps atomic.Int64

	// budgetFallbacks counts the searches planBudget and fplanBudget cut
	// short.
	budgetFallbacks atomic.Uint64

	// adopted indexes the encodings a snapshot file carried by the holder
	// key (srcKey) they were saved under. Populated once by
	// OpenSnapshotFile before the DB is handed out and read-only
	// afterwards, so lookups take no lock. backing roots the opened
	// store.File: adopted arenas and relation tuples alias its (possibly
	// memory-mapped) bytes, which must stay mapped for the lifetime of the
	// database — the file is never unmapped through the DB.
	adopted map[string]store.Enc
	backing *store.File
}

// New returns an empty database.
func New() *DB {
	db := &DB{
		dict:   relation.NewDict(),
		stores: map[string]*delta.Store{},
		cache:  newPlanCache(),
		srcs:   &srcRegistry{m: map[string]weak.Pointer[stmtSrc]{}},
	}
	db.attrKinds.Store(&map[relation.Attribute]relation.Kind{})
	return db
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
// dictionary-encoded). The first tuple written into a relation fixes each
// attribute's kind, integer or string, and a value of the other kind is
// refused (a *KindError). Writes commit as delta batches: running statements
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

// mutate is the shared write path: validate the rows, encode them, derive
// the delta batch (an upsert removes the live tuples that share its key),
// bump the global version and publish the relation's successor state. A
// batch is checked whole — arity, value kinds, repeated upsert keys —
// before any string is encoded, and a removal only looks strings up, so a
// refused or no-op write mints no dictionary code. The first insertion into
// a relation fixes its attributes' kinds.
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
	kinds := kindsOf(db.kinds(), s.Schema)
	keys := map[string]bool{} // an upsert's keys
	for i, row := range slices.Concat(addRows, delRows) {
		if len(row) != len(s.Schema) {
			return fmt.Errorf("fdb: relation %q has arity %d, got %d values", name, len(s.Schema), len(row))
		}
		for c, v := range row {
			switch k := kindOf(v); {
			case k == relation.KindNone:
				return fmt.Errorf("fdb: unsupported value type %T", v)
			case kinds[c] == relation.KindNone && i < len(addRows):
				kinds[c] = k
			case kinds[c] != relation.KindNone && kinds[c] != k:
				return &KindError{Attr: string(s.Schema[c]), Want: kinds[c], Got: k, Operand: fmt.Sprintf("the value %#v", v)}
			}
		}
		if upsertKey == 0 {
			continue
		}
		// Two rows with one key would each survive the other's
		// displacement, leaving the key twice: refuse the batch whole. A
		// column holds one kind, so keys compare as given.
		key := make([]interface{}, upsertKey)
		for c, v := range row[:upsertKey] {
			key[c] = v
			if n, ok := toValue(v); ok {
				key[c] = n
			}
		}
		k := fmt.Sprintf("%#v", key)
		if keys[k] {
			return fmt.Errorf("fdb: upsert batch on %q has two rows with key %v", name, row[:upsertKey])
		}
		keys[k] = true
	}
	db.fixKinds(s.Schema, kinds)
	tuples := func(rows [][]interface{}, mint bool) []relation.Tuple {
		out := make([]relation.Tuple, 0, len(rows))
	next:
		for _, row := range rows {
			t := make(relation.Tuple, len(row))
			for c, v := range row {
				var known bool
				if t[c], known = db.value(v, mint); !known {
					continue next // a string without a code matches no stored tuple
				}
			}
			out = append(out, t)
		}
		return out
	}
	adds, dels := tuples(addRows, true), tuples(delRows, false)
	if upsertKey > 0 {
		// Remove the live tuples each upserted tuple displaces: the key
		// columns are the schema prefix, so they are one run of the sorted
		// live version. Within the batch removals apply before additions, so
		// upserting an unchanged tuple keeps it.
		live := s.State().Live().Tuples
		prefix := func(t, key relation.Tuple) int { return t[:upsertKey].Compare(key) }
		for _, a := range adds {
			key := a[:upsertKey]
			i, _ := slices.BinarySearchFunc(live, key, prefix)
			for ; i < len(live) && prefix(live[i], key) == 0; i++ {
				dels = append(dels, live[i])
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
// name. A column is an integer column when every one of its fields parses
// as an int64, and a string column otherwise; a file without tuples fixes
// no kind. A file with a malformed line, a taken name or a column of the
// other kind than its attribute already has is refused before any of its
// strings is encoded.
func (db *DB) LoadTSV(path string) (string, error) {
	tab, err := csvio.ReadFile(path)
	if err != nil {
		return "", err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.stores[tab.Name]; ok {
		return "", fmt.Errorf("fdb: relation %q already exists", tab.Name)
	}
	known := db.kinds()
	for c, a := range tab.Schema {
		if k := known[a]; k != relation.KindNone && tab.Kinds[c] != relation.KindNone && k != tab.Kinds[c] {
			return "", &KindError{Attr: string(a), Want: k, Got: tab.Kinds[c], Operand: "the column in " + path}
		}
	}
	db.fixKinds(tab.Schema, tab.Kinds)
	rel := tab.Encode(db.dict)
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
// then applies constant selections and the projection. Query is Prepare
// followed by Exec, so a repeated query hits the plan cache and its
// statement's loaded inputs; a query with Param placeholders fails with
// Exec's missing-parameter error, and one with Agg clauses belongs to
// QueryAgg.
func (db *DB) Query(clauses ...Clause) (*Result, error) {
	st, err := db.Prepare(clauses...)
	if err != nil {
		return nil, err
	}
	return st.Exec()
}

// QueryAgg compiles and runs an aggregation query — From/Eq/Cmp clauses
// plus at least one Agg, optionally GroupBy — and returns its aggregate
// rows: Prepare followed by ExecAgg. The compiled f-tree is restructured so
// group-by attributes sit above aggregated ones, and the aggregates are
// evaluated in a single pass over the factorised result, never over its
// flattening.
func (db *DB) QueryAgg(clauses ...Clause) (*AggResult, error) {
	st, err := db.Prepare(clauses...)
	if err != nil {
		return nil, err
	}
	return st.ExecAgg()
}

// PrepareCached forwards to Prepare, which resolves through the plan cache.
// The benchmark harness is its only caller; it goes when the harness moves
// to Prepare.
func (db *DB) PrepareCached(clauses ...Clause) (*Stmt, error) { return db.Prepare(clauses...) }

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
// execution starts. GOMAXPROCS=1 builds one morsel and aggregates serially.
func (db *DB) Parallelism() int { return runtime.GOMAXPROCS(0) }

// orderLess returns the comparators ORDER BY uses, one per key: a string
// key's values compare as the strings they render as, and an integer key
// has none — its values already are stored in key order, so ordered
// iteration needs no permutations. The slice is nil when no key is a
// string key.
func (db *DB) orderLess(keys []frep.OrderKey) []frep.ValueLess {
	var less []frep.ValueLess
	kinds := db.kinds()
	for i, k := range keys {
		if kinds[k.Attr] != relation.KindStr {
			continue
		}
		if less == nil {
			less = make([]frep.ValueLess, len(keys))
		}
		// Snapshot the append-only dictionary once: every code in the
		// result predates this call, and the comparator runs O(N log N)
		// times on the sort paths — a lock round-trip per comparison would
		// dominate.
		snap := db.dict.Snapshot()
		less[i] = func(a, b relation.Value) bool {
			return relation.Cell(snap, a, relation.KindStr) < relation.Cell(snap, b, relation.KindStr)
		}
	}
	return less
}

// selPred is the one compiler of a selection: it turns op val into a column
// predicate against the dictionary as it stands when called. A baked
// selection is compiled each time it filters its input (at load and at every
// delta fold), a parameter each time an Exec binds it, and Result.Where
// compiles its own; each call comes after the data it filters was read, so
// every string code in that data is already in the dictionary. checkKinds
// has matched val's kind to the attribute's: an integer compares as itself.
// A string never gets a code here: an equality or inequality compares the
// code the string has (none: EQ matches nothing and NE everything), and a
// range compares the strings the codes render as, the order ORDER BY uses.
// pinned reports an equality on one value code, which leaves the selected
// node constant.
func (db *DB) selPred(op fplan.Cmp, val interface{}) (pred func(relation.Value) bool, pinned bool) {
	s, ok := val.(string)
	if !ok {
		c, _ := toValue(val)
		return core.ConstSel{Op: op, C: c}.Match, op == fplan.Eq
	}
	if op == fplan.Eq || op == fplan.Ne {
		c, ok := db.dict.Lookup(s)
		if !ok {
			miss := op == fplan.Ne
			return func(relation.Value) bool { return miss }, false
		}
		return core.ConstSel{Op: op, C: c}.Match, op == fplan.Eq
	}
	snap := db.dict.Snapshot()
	return func(v relation.Value) bool {
		return op.Eval(relation.Value(strings.Compare(relation.Cell(snap, v, relation.KindStr), s)), 0)
	}, false
}

// KindError refuses an operand whose kind is not its attribute's: a value
// written into the attribute, a constant or bound parameter compared with
// it, or an attribute of the other kind equated with it.
type KindError struct {
	Attr    string        // the attribute
	Want    relation.Kind // the attribute's kind
	Got     relation.Kind // the operand's kind
	Operand string        // the operand, as the message names it
	Eq      bool          // the operand is an attribute equated with Attr, not a value
}

func (e *KindError) Error() string {
	name := [...]string{"an unset", "an integer", "a string"}
	return fmt.Sprintf("fdb: %s is %s attribute, but %s is %s", e.Attr, name[e.Want], e.Operand, name[e.Got])
}

// kinds returns every written attribute's kind. The map is immutable; an
// attribute missing from it has no kind yet.
func (db *DB) kinds() map[relation.Attribute]relation.Kind { return *db.attrKinds.Load() }

// fixKinds records the kinds of schema's attributes that have none yet
// (ks[i], for schema[i], where it is not KindNone). The caller holds the
// write lock and calls it before it publishes the data that fixes them.
func (db *DB) fixKinds(schema relation.Schema, ks []relation.Kind) {
	known := db.kinds()
	var next map[relation.Attribute]relation.Kind
	for i, a := range schema {
		if _, ok := known[a]; !ok && ks[i] != relation.KindNone {
			if next == nil {
				next = maps.Clone(known)
			}
			next[a] = ks[i]
		}
	}
	if next != nil {
		db.attrKinds.Store(&next)
	}
}

// checkKinds refuses what the attributes' kinds rule out in s: a selection
// whose constant — or parameter, bound in args — is of the other kind, an
// equality between attributes of different kinds, and SUM, MIN or MAX over
// a string attribute. An attribute whose relation has not been written has
// no kind and passes. Prepare and Where check with args nil; every Exec
// checks again with its bindings, after it has read its data, so the kinds
// it checks against cover every value it read.
func (db *DB) checkKinds(s *spec, args map[string]interface{}) error {
	kinds := db.kinds()
	for _, sel := range s.sels {
		v, operand := sel.val, "the constant "
		if p, ok := v.(ParamValue); ok {
			if args == nil {
				continue
			}
			v, operand = args[p.name], "parameter $"+p.name+" = "
		}
		if want, got := kinds[sel.attr], kindOf(v); want != relation.KindNone && want != got {
			return &KindError{Attr: string(sel.attr), Want: want, Got: got, Operand: operand + fmt.Sprintf("%#v", v)}
		}
	}
	for _, e := range s.eqs {
		if ka, kb := kinds[e.A], kinds[e.B]; ka != relation.KindNone && kb != relation.KindNone && ka != kb {
			return &KindError{Attr: string(e.A), Want: ka, Got: kb, Operand: fmt.Sprintf("%s in Eq(%s, %s)", e.B, e.A, e.B), Eq: true}
		}
	}
	for _, a := range s.aggs {
		if a.Fn != frep.AggCount && a.Fn != frep.AggCountDistinct && kinds[a.Attr] == relation.KindStr {
			return fmt.Errorf("fdb: %s needs an integer attribute, but %s is a string attribute", a.Label(), a.Attr)
		}
	}
	return nil
}

// value turns a value mutate has checked into an engine Value. A string
// takes its dictionary code, and a fresh one if it has none and mint is
// set; known is false for a string left without a code. Only insertions
// mint: read paths — query constants, parameter binds — compile through
// selPred, and removals look up, so naming a string the database has never
// stored cannot grow the dictionary. The dictionary is internally
// synchronised, so value is safe under either DB lock.
func (db *DB) value(v interface{}, mint bool) (val relation.Value, known bool) {
	s, isStr := v.(string)
	switch {
	case !isStr:
		c, _ := toValue(v)
		return c, true
	case mint:
		return db.dict.Encode(s), true
	}
	return db.dict.Lookup(s)
}

// kindOf returns the kind of a value a write, constant or binding carries:
// KindNone for a type the engine does not take.
func kindOf(v interface{}) relation.Kind {
	if _, ok := v.(string); ok {
		return relation.KindStr
	} else if _, ok := toValue(v); ok {
		return relation.KindInt
	}
	return relation.KindNone
}

// toValue converts an integer constant to its engine Value.
func toValue(v interface{}) (relation.Value, bool) {
	switch x := v.(type) {
	case int:
		return relation.Value(x), true
	case int64:
		return relation.Value(x), true
	case relation.Value:
		return x, true
	}
	return 0, false
}
