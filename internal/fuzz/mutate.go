// Mutation differential harness: the same seed-derived query workload as
// fuzz.go, run against a database that keeps changing. A schedule of
// Insert/Delete/Upsert batches and compactions (all derived from the seed)
// is applied through the public write API and mirrored onto flat oracle
// relations under set semantics; after every step the live query must match
// a fresh oracle evaluation (read-your-writes through the plan cache and
// statement refresh), and every pinned snapshot must keep matching the
// oracle copy captured when it was pinned — including snapshots taken
// before mutations and queried after later writes and compactions. A
// same-tree twin of the query, prepared once and held across the schedule,
// must share the query's data holder and match the oracle after every step.
package fuzz

import (
	"fmt"
	"math/rand"

	fdb "repro"
	"repro/internal/core"
	"repro/internal/frep"
	"repro/internal/rdb"
	"repro/internal/relation"
)

// maxPins bounds the snapshots a workload holds open at once.
const maxPins = 3

// CheckMutations derives the mutation workload for seed, runs it and returns
// the number of oracle-compared queries. Any divergence comes back as a
// seed-stamped error reproducible with CheckMutations(seed) alone.
func CheckMutations(seed int64) (int, error) {
	c, err := NewCase(seed)
	if err != nil {
		return 0, fmt.Errorf("fuzz: mutation seed %d: generate: %v", seed, err)
	}
	// Mutations run on plain ints: the write schedule below would otherwise
	// have to replay dictionary code assignment per mutation order. The set
	// operation (if drawn) is dropped too — its check runs against the
	// concrete *fdb.DB, while this harness also queries pinned snapshots.
	c.strs = nil
	c.setOp = 0
	c.sels2 = nil
	rng := rand.New(rand.NewSource(seed*0x9E3779B9 + 0x7F4A7C15))

	db, err := c.build()
	if err != nil {
		return 0, fmt.Errorf("fuzz: mutation seed %d: %v", seed, err)
	}
	oracle := make([]*relation.Relation, len(c.rels))
	dom := relation.Value(4)
	for i, rel := range c.rels {
		for _, t := range rel.Tuples {
			for _, v := range t {
				dom = max(dom, v)
			}
		}
		// The oracle mirror is deduped up front: the engine is a set, and
		// delete/upsert mirroring below assumes one copy per tuple.
		oracle[i] = rel.Clone()
		oracle[i].Dedup()
	}
	dom += 3 // a little headroom so inserts create genuinely new tuples

	clauses := append(c.join(), c.selClauses(c.sels)...)

	queries := 0
	check := func(q Querier, flat *relation.Relation, tag string) error {
		if flat == nil {
			return nil // oracle past its cap: skip, never fails
		}
		fail := func(format string, args ...interface{}) error {
			return fmt.Errorf("fuzz: mutation seed %d (%s): %s",
				seed, tag, fmt.Sprintf(format, args...))
		}
		queries++
		if len(c.aggs) > 0 {
			return c.checkAgg(q, clauses, flat, fail)
		}
		return c.checkPlain(q, clauses, flat, fail)
	}

	// The twin compiles to the query's f-tree, so it shares the data holder
	// of the query's cached statement: every write is folded once for both.
	twin := c.sameTreeTwin()
	own := clauses[:len(clauses):len(clauses)] // each extension gets its own array
	query, twinClauses := c.tupleClauses(own), twin.tupleClauses(own)
	if len(c.aggs) > 0 {
		query, twinClauses = c.aggClauses(own), twin.aggClauses(own)
	}
	cached, err := db.Prepare(query...)
	if err != nil {
		return 0, fmt.Errorf("fuzz: mutation seed %d: prepare: %v", seed, err)
	}
	twinStmt, err := db.Prepare(twinClauses...)
	if err != nil {
		return 0, fmt.Errorf("fuzz: mutation seed %d: prepare twin: %v", seed, err)
	}
	if cached.Explain().Holder != twinStmt.Explain().Holder {
		return 0, fmt.Errorf("fuzz: mutation seed %d: the same-tree twin does not share the query's data holder", seed)
	}
	checkTwin := func(flat *relation.Relation, tag string) error {
		if flat == nil {
			return nil
		}
		fail := func(format string, args ...interface{}) error {
			return fmt.Errorf("fuzz: mutation seed %d (%s, same-tree twin): %s",
				seed, tag, fmt.Sprintf(format, args...))
		}
		queries++
		if len(twin.aggs) > 0 {
			res, err := twinStmt.ExecAgg()
			if err != nil {
				return fail("execagg: %v", err)
			}
			return twin.compareAgg(res, flat, fail)
		}
		res, err := twinStmt.Exec()
		if err != nil {
			return fail("exec: %v", err)
		}
		return twin.comparePlain(res, flat.Project(twin.project), fail)
	}

	type pin struct {
		snap *fdb.Snapshot
		flat *relation.Relation // oracle view captured at pin time
		step int
	}
	var pins []pin

	steps := 10 + rng.Intn(8)
	for step := 0; step < steps; step++ {
		ri := rng.Intn(len(oracle))
		name := c.names[ri]
		orel := oracle[ri]
		switch op := rng.Intn(10); {
		case op < 4: // insert a small batch (some tuples may already exist)
			n := 1 + rng.Intn(4)
			rows := make([][]interface{}, 0, n)
			for j := 0; j < n; j++ {
				t := randomTuple(rng, len(orel.Schema), dom)
				rows = append(rows, rowOf(t))
				oracleAdd(orel, t)
			}
			if err := db.InsertBatch(name, rows); err != nil {
				return queries, fmt.Errorf("fuzz: mutation seed %d: step %d insert: %v", seed, step, err)
			}
		case op < 7: // delete a batch: live tuples, plus sometimes an absent one
			n := 1 + rng.Intn(3)
			rows := make([][]interface{}, 0, n)
			for j := 0; j < n; j++ {
				var t relation.Tuple
				if len(orel.Tuples) > 0 && rng.Intn(5) > 0 {
					t = orel.Tuples[rng.Intn(len(orel.Tuples))].Clone()
				} else {
					t = randomTuple(rng, len(orel.Schema), dom)
				}
				rows = append(rows, rowOf(t))
				oracleRemove(orel, t)
			}
			if err := db.DeleteBatch(name, rows); err != nil {
				return queries, fmt.Errorf("fuzz: mutation seed %d: step %d delete: %v", seed, step, err)
			}
		case op < 9: // upsert on a random-width key prefix
			key := 1 + rng.Intn(len(orel.Schema))
			t := randomTuple(rng, len(orel.Schema), dom)
			if len(orel.Tuples) > 0 && rng.Intn(2) == 0 {
				// Half the time aim at a live key so the upsert displaces.
				copy(t[:key], orel.Tuples[rng.Intn(len(orel.Tuples))][:key])
			}
			oracleUpsert(orel, t, key)
			if err := db.Upsert(name, key, rowOf(t)...); err != nil {
				return queries, fmt.Errorf("fuzz: mutation seed %d: step %d upsert: %v", seed, step, err)
			}
		default: // fold the delta chain away under every open snapshot
			if err := db.Compact(name); err != nil {
				return queries, fmt.Errorf("fuzz: mutation seed %d: step %d compact: %v", seed, step, err)
			}
		}

		flat, err := c.flatEval(oracle)
		if err != nil {
			return queries, fmt.Errorf("fuzz: mutation seed %d: step %d oracle: %v", seed, step, err)
		}
		if err := check(db, flat, fmt.Sprintf("step %d live", step)); err != nil {
			return queries, err
		}
		if err := checkTwin(flat, fmt.Sprintf("step %d live", step)); err != nil {
			return queries, err
		}
		// Every snapshot pinned at an earlier step must still answer with
		// its pinned view, bit-for-bit, after this mutation.
		for _, p := range pins {
			if err := check(snapQuerier{db, p.snap}, p.flat, fmt.Sprintf("step %d snap@%d", step, p.step)); err != nil {
				return queries, err
			}
		}
		if len(pins) < maxPins && rng.Intn(3) == 0 {
			snap := db.Snapshot()
			// Statements bound to one snapshot share its holder for their
			// key, as the live ones share the database's.
			a, errA := snap.Bind(cached)
			b, errB := snap.Bind(cached)
			if errA != nil || errB != nil || a.Explain().Holder != b.Explain().Holder {
				return queries, fmt.Errorf("fuzz: mutation seed %d: step %d: two binds to one snapshot do not share a data holder (%v, %v)", seed, step, errA, errB)
			}
			pins = append(pins, pin{snap: snap, flat: flat, step: step})
		}
	}

	for _, p := range pins {
		p.snap.Close()
		if _, err := (snapQuerier{db, p.snap}).Query(fdb.From(c.names[0])); err == nil {
			return queries, fmt.Errorf("fuzz: mutation seed %d: closed snapshot (step %d) still answered", seed, p.step)
		}
	}
	if open := db.OpenSnapshots(); open != 0 {
		return queries, fmt.Errorf("fuzz: mutation seed %d: %d snapshots leaked", seed, open)
	}
	return queries, nil
}

// snapQuerier answers a differential check from a pinned snapshot: each query
// is the database's cached statement for its clauses, bound to the snapshot.
type snapQuerier struct {
	db   *fdb.DB
	snap *fdb.Snapshot
}

func (q snapQuerier) bind(clauses []fdb.Clause) (*fdb.Stmt, error) {
	st, err := q.db.Prepare(clauses...)
	if err != nil {
		return nil, err
	}
	return q.snap.Bind(st)
}

func (q snapQuerier) Query(clauses ...fdb.Clause) (*fdb.Result, error) {
	st, err := q.bind(clauses)
	if err != nil {
		return nil, err
	}
	return st.Exec()
}

func (q snapQuerier) QueryAgg(clauses ...fdb.Clause) (*fdb.AggResult, error) {
	st, err := q.bind(clauses)
	if err != nil {
		return nil, err
	}
	return st.ExecAgg()
}

// sameTreeTwin derives a case whose statement compiles to this case's
// f-tree but asks less of it: a plain count per group for an aggregation,
// otherwise the result projected onto a random part of its attributes (the
// ORDER BY keys kept). The draw has its own random stream, so the case and
// its write schedule are what they always were.
func (c *Case) sameTreeTwin() *Case {
	twin := *c
	if len(c.aggs) > 0 {
		twin.aggs = []frep.AggSpec{{Fn: frep.AggCount}}
		return &twin
	}
	out := c.project
	if out == nil {
		for _, rel := range c.rels {
			out = append(out, rel.Schema...)
		}
	}
	keep := relation.AttrSet{}
	for _, k := range c.orderBy {
		keep.Add(k.Attr)
	}
	rng := rand.New(rand.NewSource(c.Seed ^ 0x7517ee))
	for _, i := range rng.Perm(len(out))[:1+rng.Intn(len(out))] {
		keep.Add(out[i])
	}
	twin.project = nil
	for _, a := range out {
		if keep.Has(a) {
			twin.project = append(twin.project, a)
		}
	}
	return &twin
}

// flatEval evaluates the case's query over the given relation states with
// the flat oracle; nil (no error) when the flat result exceeds the cap.
func (c *Case) flatEval(rels []*relation.Relation) (*relation.Relation, error) {
	oq := &core.Query{Equalities: c.eqs, Selections: c.sels}
	for _, rel := range rels {
		oq.Relations = append(oq.Relations, rel.Clone())
	}
	ores, err := rdb.Evaluate(oq, rdb.Options{Materialize: true, MaxTuples: maxOracleTuples})
	if err != nil {
		return nil, err
	}
	if ores.TimedOut || ores.Relation == nil {
		return nil, nil
	}
	return ores.Relation, nil
}

func randomTuple(rng *rand.Rand, arity int, dom relation.Value) relation.Tuple {
	t := make(relation.Tuple, arity)
	for i := range t {
		t[i] = 1 + relation.Value(rng.Int63n(int64(dom)))
	}
	return t
}

func rowOf(t relation.Tuple) []interface{} {
	row := make([]interface{}, len(t))
	for i, v := range t {
		row[i] = int64(v)
	}
	return row
}

func oracleHas(rel *relation.Relation, t relation.Tuple) bool {
	for _, u := range rel.Tuples {
		if u.Compare(t) == 0 {
			return true
		}
	}
	return false
}

func oracleAdd(rel *relation.Relation, t relation.Tuple) {
	if !oracleHas(rel, t) {
		rel.AppendTuple(t.Clone())
	}
}

func oracleRemove(rel *relation.Relation, t relation.Tuple) {
	for i, u := range rel.Tuples {
		if u.Compare(t) == 0 {
			rel.Tuples = append(rel.Tuples[:i:i], rel.Tuples[i+1:]...)
			return
		}
	}
}

// oracleUpsert mirrors DB.Upsert: remove every tuple agreeing with t on the
// first key columns, then add t.
func oracleUpsert(rel *relation.Relation, t relation.Tuple, key int) {
	kept := rel.Tuples[:0:0]
	for _, u := range rel.Tuples {
		match := true
		for c := 0; c < key; c++ {
			if u[c] != t[c] {
				match = false
				break
			}
		}
		if !match {
			kept = append(kept, u)
		}
	}
	rel.Tuples = kept
	oracleAdd(rel, t)
}
