// Package fuzz is the differential testing harness of the engine: it
// derives a complete random query workload from a single seed — schema and
// data via internal/gen, a conjunctive equality join, constant selections,
// a projection or a group-by aggregation, and (for tuple results) random
// OrderBy keys (mixed asc/desc, tree-compatible and incompatible),
// Limit/Offset and Distinct — runs it through the public fdb surface (once
// as a single query and once split in two results that are joined,
// filtered, projected and ordered after the fact, so the f-plan operators
// restructure built representations), and checks the result against the flat
// internal/rdb oracle as an exact tuple *sequence*: the engine's
// enumeration order is deterministic (ORDER BY keys first, remaining
// columns ascending), so the oracle sorts its flat result with the same
// comparator and every position must match. Every failure message leads
// with the seed, so any mismatch found by the randomised tests or by `go
// test -fuzz` reproduces with Check(seed) alone. The engine runs with
// GOMAXPROCS workers, so running the package at GOMAXPROCS=1 and at
// GOMAXPROCS=4 covers the serial and the morsel-parallel paths.
package fuzz

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strconv"

	fdb "repro"
	"repro/internal/core"
	"repro/internal/fbuild"
	"repro/internal/fplan"
	"repro/internal/frep"
	"repro/internal/ftree"
	"repro/internal/gen"
	"repro/internal/opt"
	"repro/internal/rdb"
	"repro/internal/relation"
)

// maxOracleTuples caps the flat result the oracle is asked to materialise;
// the generator's sizes keep real cases far below it, so hitting the cap
// skips the case rather than failing it.
const maxOracleTuples = 500_000

// Querier is the query surface a differential check runs against: the live
// database or a pinned snapshot (snapQuerier) — both answer the same clause
// language, so the same oracle comparison covers read-your-writes and
// snapshot reads.
type Querier interface {
	Query(clauses ...fdb.Clause) (*fdb.Result, error)
	QueryAgg(clauses ...fdb.Clause) (*fdb.AggResult, error)
}

// Case is one derived differential test case. All randomness comes from the
// seed; two Cases with the same seed are identical.
type Case struct {
	Seed     int64
	rels     []*relation.Relation // qualified-schema inputs for the oracle
	names    []string             // relation names, creation order
	bare     map[string][]string  // relation name -> bare attribute names
	eqs      []core.Equality      // qualified
	sels     []core.ConstSel      // qualified
	project  []relation.Attribute // qualified; nil when aggregating or keeping all
	groupBy  []relation.Attribute // qualified; aggregation cases only
	aggs     []frep.AggSpec       // non-empty for aggregation cases
	orderBy  []frep.OrderKey      // qualified; tuple cases only
	limit    int                  // -1: none
	offset   int
	distinct bool
	// String cases insert every value dictionary-encoded through a scrambled
	// alphabet (strs[v-1] is value v's string form; lexicographic order is a
	// random permutation of numeric order), so ORDER BY must sort keys in
	// decoded order — codes are insertion-ordered — and the per-union sort
	// permutations are on the oracle's hook. Range selections on strings
	// compare in decoded order too, so the oracle pre-filters them in string
	// space before its (value-space) join.
	strs []string
	// Set-operation cases (setOp != 0) combine two selection legs over the
	// same relations, equalities and projection: leg one uses sels, leg two
	// sels2, joined by union (1), union all (2), except (3) or intersect (4).
	setOp int
	sels2 []core.ConstSel
	dom   int // value domain [1, dom]
}

// NewCase derives a case from the seed.
func NewCase(seed int64) (*Case, error) {
	rng := rand.New(rand.NewSource(seed))
	c := &Case{Seed: seed, bare: map[string][]string{}, limit: -1}

	r := 2 + rng.Intn(2)           // 2..3 relations
	a := r + rng.Intn(5)           // r..r+4 attributes
	n := 5 + rng.Intn(40)          // tuples per relation
	m := 2 + rng.Intn(10)          // value domain [1, m]
	k := 1 + rng.Intn(min(a-1, 3)) // join equalities
	dist := gen.Uniform
	if rng.Intn(3) == 0 {
		dist = gen.Zipf
	}
	c.dom = m

	sch, err := gen.RandomSchema(rng, r, a)
	if err != nil {
		return nil, err
	}
	eqs, err := gen.RandomEqualities(rng, sch, k)
	if err != nil {
		return nil, err
	}
	rels := sch.Populate(rng, n, gen.NewSampler(rng, dist, m))

	// Qualify every attribute as "Rel.attr" — the names the fdb surface
	// gives them — so the oracle query and the fdb query read identically.
	owner := map[relation.Attribute]relation.Attribute{}
	for _, rel := range rels {
		qual := make(relation.Schema, len(rel.Schema))
		for j, attr := range rel.Schema {
			q := relation.Attribute(rel.Name + "." + string(attr))
			owner[attr] = q
			qual[j] = q
			c.bare[rel.Name] = append(c.bare[rel.Name], string(attr))
		}
		rel.Schema = qual
		c.names = append(c.names, rel.Name)
	}
	c.rels = rels
	for _, e := range eqs {
		c.eqs = append(c.eqs, core.Equality{A: owner[e.A], B: owner[e.B]})
	}

	var attrs []relation.Attribute
	for _, rel := range rels {
		attrs = append(attrs, rel.Schema...)
	}

	// One case in three runs on dictionary-encoded strings through a
	// scrambled alphabet (the permutation makes decoded order disagree with
	// code order); only applied to tuple-result cases (aggregates over codes
	// have no flat-int reference).
	useStrings := rng.Intn(3) == 0
	scramble := rng.Perm(m)

	// Constant selections: 0-2, values around the domain, any operator —
	// string cases included: ranges on strings compare in decoded
	// lexicographic order on both sides of the differential.
	ops := []fdb.CmpOp{fdb.EQ, fdb.NE, fdb.LT, fdb.LE, fdb.GT, fdb.GE}
	c.sels = gen.RandomConstSels(rng, attrs, 2, m, ops)

	// Query shape: plain (possibly projected) or aggregation.
	if rng.Intn(5) < 2 {
		// Aggregation: 0-2 group-by attributes, 1-3 aggregates.
		perm := rng.Perm(len(attrs))
		for i := rng.Intn(3); i > 0 && len(c.groupBy) < len(attrs); i-- {
			c.groupBy = append(c.groupBy, attrs[perm[len(c.groupBy)]])
		}
		fns := []frep.AggFunc{frep.AggCount, frep.AggSum, frep.AggMin, frep.AggMax, frep.AggCountDistinct}
		for i := 1 + rng.Intn(3); i > 0; i-- {
			fn := fns[rng.Intn(len(fns))]
			spec := frep.AggSpec{Fn: fn}
			if fn != frep.AggCount {
				spec.Attr = attrs[rng.Intn(len(attrs))]
			}
			c.aggs = append(c.aggs, spec)
		}
	} else if rng.Intn(2) == 0 {
		// Projection onto a random non-empty subset, random order.
		perm := rng.Perm(len(attrs))
		keep := 1 + rng.Intn(len(attrs))
		for _, i := range perm[:keep] {
			c.project = append(c.project, attrs[i])
		}
	}
	if len(c.aggs) == 0 {
		// Order-aware retrieval clauses over the output attributes: random
		// key sets land on tree-compatible and incompatible orders alike, so
		// both the streaming iterator and the heap fallback are exercised —
		// with and without Limit/Offset clipping and Distinct.
		out := attrs
		if c.project != nil {
			out = c.project
		}
		if rng.Intn(2) == 0 {
			c.orderBy = gen.RandomOrderBy(rng, out, 3)
		}
		if rng.Intn(3) == 0 {
			c.limit = rng.Intn(25)
		}
		if rng.Intn(4) == 0 {
			c.offset = rng.Intn(8)
		}
		if rng.Intn(4) == 0 {
			c.distinct = true
		}
		if useStrings {
			c.strs = make([]string, m)
			for v := 1; v <= m; v++ {
				c.strs[v-1] = fmt.Sprintf("s%03d", scramble[v-1])
			}
		}
		// One tuple case in three additionally runs as a set operation: a
		// second selection leg over the same relations, equalities and
		// projection, combined by a random operator. The plain leg-one check
		// still runs, so set cases subsume plain coverage.
		if rng.Intn(3) == 0 {
			c.setOp = 1 + rng.Intn(4)
			c.sels2 = gen.RandomConstSels(rng, attrs, 2, m, ops)
		}
	}
	return c, nil
}

// codes replays the dictionary assignment the engine performs while the
// case's tuples are inserted (codes are handed out in first-appearance scan
// order), returning value → code. Selection constants never mint codes —
// query comparison is a read path — so only the inserted data contributes.
func (c *Case) codes() map[relation.Value]relation.Value {
	out := map[relation.Value]relation.Value{}
	next := relation.Value(0)
	for _, rel := range c.rels {
		for _, t := range rel.Tuples {
			for _, v := range t {
				if _, ok := out[v]; !ok {
					out[v] = next
					next++
				}
			}
		}
	}
	return out
}

// Check derives the case for seed and runs it, returning a seed-stamped
// error on any divergence from the oracle.
func Check(seed int64) error {
	c, err := NewCase(seed)
	if err != nil {
		return fmt.Errorf("fuzz: seed %d: generate: %v", seed, err)
	}
	return c.Run()
}

// Run executes the case against a fresh database.
func (c *Case) Run() error { return c.run(nil) }

// CheckTrees derives the case for seed and evaluates its join below the
// query API, once over opt.GreedyFTree's tree and once over
// opt.OptimalFTree's: the inputs are pre-filtered by the constant
// selections, path-sorted and built with fbuild exactly as a statement
// would, and each representation must enumerate the flat oracle's relation.
// Any valid f-tree of a query represents the same result, so whichever tree
// the planning policy picks — and it may pick either — is covered. Values
// stay plain integers here (no dictionary below the API). Returns the
// number of oracle-compared builds.
func CheckTrees(seed int64) (int, error) {
	c, err := NewCase(seed)
	if err != nil {
		return 0, fmt.Errorf("fuzz: seed %d: generate: %v", seed, err)
	}
	c.strs = nil
	fail := func(format string, args ...interface{}) error {
		return fmt.Errorf("fuzz: seed %d (trees): %s", c.Seed, fmt.Sprintf(format, args...))
	}
	flat, err := c.oracleFlat(c.sels)
	if err != nil {
		return 0, fail("oracle: %v", err)
	}
	if flat == nil {
		return 0, nil // flat result past the cap
	}
	q := &core.Query{Equalities: c.eqs}
	for _, rel := range c.rels {
		r := rel.Clone()
		r.Dedup()
		for _, s := range c.sels {
			if col := r.Schema.Index(s.A); col >= 0 {
				s := s
				r = r.Filter(func(t relation.Tuple) bool { return s.Match(t[col]) })
			}
		}
		q.Relations = append(q.Relations, r)
	}
	classes, schemas := q.Classes(), q.Schemas()
	greedy, _, err := opt.GreedyFTree(classes, schemas)
	if err != nil {
		return 0, fail("greedy f-tree: %v", err)
	}
	optimal, _, err := opt.OptimalFTree(classes, schemas, opt.TreeSearchOptions{})
	if err != nil {
		return 0, fail("optimal f-tree: %v", err)
	}
	for _, leg := range []struct {
		name string
		tree *ftree.T
	}{{"greedy", greedy}, {"optimal", optimal}} {
		name, tree := leg.name, leg.tree
		rels := make([]*relation.Relation, len(q.Relations))
		for i, r := range q.Relations {
			rels[i] = r.Clone() // SortFor sorts in place, per tree
		}
		if err := fbuild.SortFor(rels, tree); err != nil {
			return 0, fail("%s tree: sort: %v", name, err)
		}
		enc, err := fbuild.BuildEnc(rels, tree)
		if err != nil {
			return 0, fail("%s tree: build: %v", name, err)
		}
		// Equal compares as sets; the cardinalities rule out duplicates.
		got := enc.Relation(name)
		if want := flat.Project(got.Schema); got.Cardinality() != want.Cardinality() || !got.Equal(want) {
			return 0, fail("%s tree %s represents %d tuples that are not the oracle's %d", name, tree, got.Cardinality(), want.Cardinality())
		}
	}
	return 2, nil
}

// CheckPersisted derives the case for seed and runs it through a snapshot
// round-trip: the database is built exactly as Check builds it, saved as a
// zero-copy snapshot file under dir, reopened from the file (mmap when
// available), and the oracle comparison runs against the reopened database.
// Opened-snapshot reads thereby face the same differential bar as live
// ones. The case's statement (its aggregation, in aggregate cases) runs
// before the save, so the file carries its holder's arena, and its first
// execution on the reopened database must adopt that arena, not rebuild,
// whenever the encoding is non-empty: a case has no Param, so every
// statement it prepares memoises.
func CheckPersisted(seed int64, dir string) error {
	c, err := NewCase(seed)
	if err != nil {
		return fmt.Errorf("fuzz: seed %d: generate: %v", seed, err)
	}
	return c.run(func(db *fdb.DB, clauses []fdb.Clause) (*fdb.DB, error) {
		if len(c.aggs) > 0 {
			clauses = c.aggClauses(clauses)
		}
		if _, err := c.execCached(db, clauses); err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("case%d.fdb", seed))
		if err := db.SaveSnapshot(path); err != nil {
			return nil, err
		}
		ndb, err := fdb.OpenSnapshotFile(path)
		if err != nil {
			return nil, err
		}
		st, err := c.execCached(ndb, clauses)
		if err != nil {
			return nil, err
		}
		if !st.Explain().Adopted {
			flat, err := c.oracleFlat(c.sels)
			if err != nil {
				return nil, err
			}
			if flat != nil && len(flat.Tuples) > 0 {
				return nil, fmt.Errorf("the reopened first execution rebuilt its encoding instead of adopting the snapshot's arena")
			}
		}
		return ndb, nil
	})
}

// execCached prepares the clauses through db's plan cache and executes the
// statement once, as an aggregation in aggregate cases.
func (c *Case) execCached(db *fdb.DB, clauses []fdb.Clause) (*fdb.Stmt, error) {
	st, err := db.Prepare(clauses...)
	if err != nil {
		return nil, err
	}
	if len(c.aggs) > 0 {
		_, err = st.ExecAgg()
	} else {
		_, err = st.Exec()
	}
	return st, err
}

// run builds the case's database, optionally routes it through a persist
// hook (which may replace it with a reopened copy), and checks the result
// of every query variant against the flat oracle.
func (c *Case) run(persist func(*fdb.DB, []fdb.Clause) (*fdb.DB, error)) error {
	fail := func(format string, args ...interface{}) error {
		return fmt.Errorf("fuzz: seed %d: %s", c.Seed, fmt.Sprintf(format, args...))
	}

	db, err := c.build()
	if err != nil {
		return fail("%v", err)
	}
	base := c.join()
	clauses := append(append([]fdb.Clause{}, base...), c.selClauses(c.sels)...)

	if persist != nil {
		ndb, err := persist(db, clauses)
		if err != nil {
			return fail("persist: %v", err)
		}
		db = ndb
	}
	if err := c.checkKinds(db, fail); err != nil {
		return err
	}

	// Oracle: the flat relational engine on the same qualified query.
	flat, err := c.oracleFlat(c.sels)
	if err != nil {
		return fail("oracle: %v", err)
	}
	if flat == nil {
		return nil // flat result past the cap: not this harness's business
	}

	if err := c.checkRestructured(db, flat, fail); err != nil {
		return err
	}
	if len(c.aggs) > 0 {
		return c.checkAgg(db, clauses, flat, fail)
	}
	if err := c.checkPlain(db, clauses, flat, fail); err != nil {
		return err
	}
	if c.setOp != 0 {
		return c.checkSet(db, base, flat, fail)
	}
	return nil
}

// build creates a fresh database holding the case's relations, every value
// inserted as an integer or, in string cases, as its scrambled string.
func (c *Case) build() (*fdb.DB, error) {
	db := fdb.New()
	for _, rel := range c.rels {
		if err := db.Create(rel.Name, c.bare[rel.Name]...); err != nil {
			return nil, fmt.Errorf("create: %v", err)
		}
		for _, t := range rel.Tuples {
			vals := make([]interface{}, len(t))
			for i, v := range t {
				if c.strs != nil {
					vals[i] = c.strs[v-1]
				} else {
					vals[i] = int64(v)
				}
			}
			if err := db.Insert(rel.Name, vals...); err != nil {
				return nil, fmt.Errorf("insert: %v", err)
			}
		}
	}
	return db, nil
}

// join is the case's From clause and join equalities.
func (c *Case) join() []fdb.Clause {
	out := []fdb.Clause{fdb.From(c.names...)}
	for _, e := range c.eqs {
		out = append(out, fdb.Eq(string(e.A), string(e.B)))
	}
	return out
}

// Statement builds the case's database and returns it with the case's
// one-shot statement: the join, the first selection leg, and the retrieval
// clauses (or the grouping and aggregates) the differential check queries.
// It makes the generator a source of varied statements for other packages'
// tests.
func (c *Case) Statement() (*fdb.DB, []fdb.Clause, error) {
	db, err := c.build()
	if err != nil {
		return nil, nil, fmt.Errorf("fuzz: seed %d: %v", c.Seed, err)
	}
	clauses := append(c.join(), c.selClauses(c.sels)...)
	if len(c.aggs) > 0 {
		return db, c.aggClauses(clauses), nil
	}
	return db, c.tupleClauses(clauses), nil
}

// selClauses renders a selection leg as fdb Cmp clauses (string form for
// string cases).
func (c *Case) selClauses(sels []core.ConstSel) []fdb.Clause {
	var out []fdb.Clause
	for _, s := range sels {
		if c.strs != nil {
			out = append(out, fdb.Cmp(string(s.A), s.Op, c.strs[s.C-1]))
		} else {
			out = append(out, fdb.Cmp(string(s.A), s.Op, int64(s.C)))
		}
	}
	return out
}

// oracleFlat evaluates one selection leg against the flat rdb oracle and
// returns the materialised result (nil when past the materialisation cap).
// For string cases, range selections compare in decoded lexicographic order
// — not in the oracle's integer value space — so they are applied as
// string-space pre-filters on the inputs (a single-attribute selection
// commutes with the equi-join); equalities commute with the injective
// dictionary and stay in value space.
func (c *Case) oracleFlat(sels []core.ConstSel) (*relation.Relation, error) {
	oq := &core.Query{Equalities: c.eqs}
	var strRanges []core.ConstSel
	for _, s := range sels {
		if c.strs != nil && s.Op != fdb.EQ && s.Op != fdb.NE {
			strRanges = append(strRanges, s)
			continue
		}
		oq.Selections = append(oq.Selections, s)
	}
	for _, rel := range c.rels {
		r := rel.Clone()
		for _, s := range strRanges {
			col := r.Schema.Index(s.A)
			if col < 0 {
				continue
			}
			s, col := s, col
			r = r.Filter(func(t relation.Tuple) bool { return c.strRangeMatch(t[col], s) })
		}
		oq.Relations = append(oq.Relations, r)
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

// strRangeMatch evaluates a string range selection in decoded space: both
// the data value and the constant map through the scrambled alphabet.
func (c *Case) strRangeMatch(v relation.Value, s core.ConstSel) bool {
	dv, dc := c.strs[v-1], c.strs[s.C-1]
	switch s.Op {
	case fdb.LT:
		return dv < dc
	case fdb.LE:
		return dv <= dc
	case fdb.GT:
		return dv > dc
	case fdb.GE:
		return dv >= dc
	}
	return false
}

// checkPlain compares the enumerated factorised result with the flat oracle
// as an exact tuple sequence: the oracle's (set-semantics) flat result is
// sorted with the engine's retrieval comparator — the OrderBy keys first,
// then every result column ascending — clipped by Offset/Limit, and each
// position must match (the factorised count must agree too).
func (c *Case) checkPlain(db Querier, clauses []fdb.Clause, flat *relation.Relation, fail func(string, ...interface{}) error) error {
	res, err := db.Query(c.tupleClauses(clauses)...)
	if err != nil {
		return fail("query: %v", err)
	}

	want := flat
	if c.project != nil {
		want = flat.Project(c.project) // set semantics, like the engine
	}
	return c.comparePlain(res, want, fail)
}

// tupleClauses appends the case's projection and retrieval clauses.
func (c *Case) tupleClauses(clauses []fdb.Clause) []fdb.Clause {
	if c.project != nil {
		clauses = append(clauses, projectClause(c.project))
	}
	return append(clauses, c.retrievalClauses()...)
}

// projectClause renders a projection as an fdb Project clause.
func projectClause(attrs []relation.Attribute) fdb.Clause {
	ps := make([]string, len(attrs))
	for i, a := range attrs {
		ps[i] = string(a)
	}
	return fdb.Project(ps...)
}

// retrievalClauses renders the case's OrderBy, Distinct, Offset and Limit.
func (c *Case) retrievalClauses() []fdb.Clause {
	var clauses []fdb.Clause
	if len(c.orderBy) > 0 {
		keys := make([]interface{}, len(c.orderBy))
		for i, k := range c.orderBy {
			if k.Desc {
				keys[i] = fdb.Desc(string(k.Attr))
			} else {
				keys[i] = fdb.Asc(string(k.Attr))
			}
		}
		clauses = append(clauses, fdb.OrderBy(keys...))
	}
	if c.distinct {
		clauses = append(clauses, fdb.Distinct())
	}
	if c.offset > 0 {
		clauses = append(clauses, fdb.Offset(c.offset))
	}
	if c.limit >= 0 {
		clauses = append(clauses, fdb.Limit(c.limit))
	}
	return clauses
}

// checkRestructured answers the case's join the long way round: the
// relations are split in two halves, each half is queried on its own, the
// two factorised results are joined on the equalities that cross the split,
// and one final Where on the joined result applies the equalities and
// selections held back from the halves, the projection, and — when the
// case's order keys survive that projection — the case's retrieval
// clauses. The outcome must be the one-shot query's oracle result, ordered
// and clipped as the case asks. This is the leg that reaches
// Result.Join/Where, hence plan-driven swaps, merges and absorbs over built
// representations, and ordered retrieval over the encodings they
// restructured. It draws from its own random stream, so the case
// derivation (and every recorded seed) is unchanged by it.
func (c *Case) checkRestructured(db Querier, flat *relation.Relation, fail func(string, ...interface{}) error) error {
	rng := rand.New(rand.NewSource(c.Seed ^ 0x5ca1ab1e))
	cut := 1 + rng.Intn(len(c.rels)-1)
	half := [2][]fdb.Clause{{fdb.From(c.names[:cut]...)}, {fdb.From(c.names[cut:]...)}}
	side := map[relation.Attribute]int{}
	var attrs []relation.Attribute
	for i, rel := range c.rels {
		for _, a := range rel.Schema {
			if i >= cut {
				side[a] = 1
			}
			attrs = append(attrs, a)
		}
	}
	var cross, later []fdb.Clause
	var crossConds []opt.Condition
	for _, e := range c.eqs {
		cl := fdb.Eq(string(e.A), string(e.B))
		switch {
		case side[e.A] != side[e.B]:
			cross = append(cross, cl)
			crossConds = append(crossConds, opt.Condition{A: e.A, B: e.B})
		case rng.Intn(3) == 0:
			later = append(later, cl)
		default:
			half[side[e.A]] = append(half[side[e.A]], cl)
		}
	}
	for i, cl := range c.selClauses(c.sels) {
		if rng.Intn(3) == 0 {
			later = append(later, cl)
		} else {
			half[side[c.sels[i].A]] = append(half[side[c.sels[i].A]], cl)
		}
	}
	project := c.project
	if project == nil && rng.Intn(2) == 0 {
		for _, i := range rng.Perm(len(attrs))[:1+rng.Intn(len(attrs))] {
			project = append(project, attrs[i])
		}
	}

	left, err := db.Query(half[0]...)
	if err != nil {
		return fail("restructured: left half: %v", err)
	}
	right, err := db.Query(half[1]...)
	if err != nil {
		return fail("restructured: right half: %v", err)
	}
	res, err := left.Join(right, cross...)
	if err != nil {
		return fail("restructured: join: %v", err)
	}
	if len(crossConds) > 0 {
		// Cached or not, Join serves exactly the plan a fresh search under
		// its budget (the fdb package's fplanBudget, 1024 states) finds, or
		// the greedy plan when that search runs out.
		prod, err := fplan.ProductEnc(left.Enc(), right.Enc())
		if err != nil {
			return fail("restructured: product: %v", err)
		}
		found, err := opt.ExhaustivePlan(prod.Tree, crossConds, opt.PlanSearchOptions{Budget: 1024})
		if errors.Is(err, opt.ErrBudget) {
			found, err = opt.GreedyPlan(prod.Tree, crossConds)
		}
		if err != nil {
			return fail("restructured: f-plan search: %v", err)
		}
		if want, err := found.Plan.ExecuteEnc(context.Background(), prod); err != nil || !want.Equal(res.Enc()) {
			return fail("restructured: join is not what the searched f-plan %s builds (%v)", found.Plan, err)
		}
	}
	// The case's retrieval clauses ride on the final Where unless it
	// projects an order key away; the result is then compared unordered.
	final, want, ordered := later, flat, true
	if project != nil {
		final = append(final, projectClause(project))
		want = flat.Project(project) // set semantics, like the engine
		kept := relation.NewAttrSet(project...)
		for _, k := range c.orderBy {
			ordered = ordered && kept.Has(k.Attr)
		}
	}
	expect := *c
	if ordered {
		final = append(final, c.retrievalClauses()...)
	} else {
		expect.orderBy, expect.offset, expect.limit = nil, 0, -1
	}
	if len(final) > 0 {
		if res, err = res.Where(final...); err != nil {
			return fail("restructured: where: %v", err)
		}
	}
	if err := expect.comparePlain(res, want, fail); err != nil {
		return fmt.Errorf("restructured (cut %d, %d cross, %d later, project %v, ordered %v): %w",
			cut, len(cross), len(later), project, ordered, err)
	}
	return nil
}

// comparePlain checks one tuple result against its flat reference relation
// (already projected; duplicates preserved — union-all references are
// bags): the reference moves into the engine's column order, sorts by the
// retrieval comparator, clips by Offset/Limit, and each position must
// match.
func (c *Case) comparePlain(res *fdb.Result, want *relation.Relation, fail func(string, ...interface{}) error) error {
	gotSchema := make(relation.Schema, 0, len(res.Schema()))
	for _, a := range res.Schema() {
		gotSchema = append(gotSchema, relation.Attribute(a))
	}
	// Reference sequence: the oracle tuples permuted into the engine's
	// column order (a pure permutation — never a dedup, so bag references
	// survive), sorted by the retrieval comparator, clipped. For string
	// cases the oracle moves into dictionary-code space first (replaying the
	// engine's insertion-ordered code assignment) and sorts keys by decoded
	// string — exactly the contract: keys decoded, residual ties by code.
	perm := make([]int, len(gotSchema))
	for i, a := range gotSchema {
		if perm[i] = want.Schema.Index(a); perm[i] < 0 {
			return fail("result schema %v not covered by oracle schema %v", gotSchema, want.Schema)
		}
	}
	ref := make([]relation.Tuple, len(want.Tuples))
	for i, t := range want.Tuples {
		nt := make(relation.Tuple, len(perm))
		for j, cix := range perm {
			nt[j] = t[cix]
		}
		ref[i] = nt
	}
	var less []frep.ValueLess
	if c.strs != nil {
		code := c.codes()
		str := make(map[relation.Value]string, len(code))
		for v, cd := range code {
			str[cd] = c.strs[v-1]
		}
		for _, t := range ref {
			for i, v := range t {
				t[i] = code[v]
			}
		}
		less = make([]frep.ValueLess, len(c.orderBy))
		for i := range less {
			less[i] = func(a, b relation.Value) bool { return str[a] < str[b] }
		}
	}
	cmp := frep.TupleCompare(gotSchema, c.orderBy, less)
	sort.SliceStable(ref, func(i, j int) bool { return cmp(ref[i], ref[j]) < 0 })
	expect := ref
	if c.offset > 0 {
		if c.offset >= len(expect) {
			expect = nil
		} else {
			expect = expect[c.offset:]
		}
	}
	if c.limit >= 0 && len(expect) > c.limit {
		expect = expect[:c.limit]
	}

	var got []relation.Tuple
	it := res.Iter()
	for {
		t, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, t.Clone())
	}
	if int64(len(got)) != res.Count() {
		return fail("enumerated %d tuples but Count() = %d", len(got), res.Count())
	}
	if len(got) != len(expect) {
		return fail("result has %d tuples, oracle %d", len(got), len(expect))
	}
	for i := range got {
		if got[i].Compare(expect[i]) != 0 {
			return fail("sequence diverges at position %d: fdb %v, oracle %v (order %v offset %d limit %d distinct %v)",
				i, got[i], expect[i], c.orderBy, c.offset, c.limit, c.distinct)
		}
	}
	return nil
}

// checkSet runs the case's set operation over the two legs' results with
// the Result method, refines it with one Where clause (drawRefinement) and
// finishes it with the case's retrieval clauses in that Where, and compares
// against the flat rdb set-algebra mirror over the two legs' oracle
// results. A bag union is refined operand by operand, so the mirror refines
// each leg before rdb.UnionAll; the set operations are refined after.
func (c *Case) checkSet(db *fdb.DB, base []fdb.Clause, flat1 *relation.Relation, fail func(string, ...interface{}) error) error {
	flat2, err := c.oracleFlat(c.sels2)
	if err != nil {
		return fail("oracle leg 2: %v", err)
	}
	if flat2 == nil {
		return nil // past the materialisation cap
	}
	leg := func(sels []core.ConstSel) (*fdb.Result, error) {
		cl := append(append([]fdb.Clause{}, base...), c.selClauses(sels)...)
		if c.project != nil {
			cl = append(cl, projectClause(c.project))
		}
		return db.Query(cl...)
	}
	want1, want2 := flat1, flat2
	if c.project != nil {
		want1 = flat1.Project(c.project) // set semantics per leg, like the engine
		want2 = flat2.Project(c.project)
	}
	ops := map[int]struct {
		name string
		meth func(a, b *fdb.Result) (*fdb.Result, error)
		ref  func(a, b *relation.Relation) (*relation.Relation, error)
	}{
		1: {"union", (*fdb.Result).Union, rdb.Union},
		2: {"union all", (*fdb.Result).UnionAll, rdb.UnionAll},
		3: {"except", (*fdb.Result).Except, rdb.Except},
		4: {"intersect", (*fdb.Result).Intersect, rdb.Intersect},
	}
	op := ops[c.setOp]
	r1, err := leg(c.sels)
	if err != nil {
		return fail("query leg 1: %v", err)
	}
	r2, err := leg(c.sels2)
	if err != nil {
		return fail("query leg 2: %v", err)
	}
	refine := c.drawRefinement(r1.Enc().Tree)
	if c.setOp == 2 {
		want1, want2 = refine.flat(want1), refine.flat(want2)
	}
	want, err := op.ref(want1, want2)
	if err != nil {
		return fail("%s reference: %v", op.name, err)
	}
	if c.setOp != 2 {
		want = refine.flat(want)
	}
	if c.distinct {
		want = want.Clone()
		want.Dedup() // trailing Distinct folds a union-all bag into a set
	}
	res, err := op.meth(r1, r2)
	if err != nil {
		return fail("result %s: %v", op.name, err)
	}
	if res, err = res.Where(append([]fdb.Clause{refine.clause}, c.retrievalClauses()...)...); err != nil {
		return fail("%s: where %s: %v", op.name, refine.label, err)
	}
	if err := c.comparePlain(res, want, fail); err != nil {
		return fmt.Errorf("%s, where %s: %w", op.name, refine.label, err)
	}
	return nil
}

// refinement is one Where clause over a set operation's result with its
// flat counterpart.
type refinement struct {
	label  string
	clause fdb.Clause
	flat   func(*relation.Relation) *relation.Relation
}

// drawRefinement draws checkSet's refinement over the legs' output
// attributes: a constant selection, an equality between two attributes on
// different nodes of t (a selection when there are none), or a projection
// that keeps the order keys. It draws from its own random stream, so the
// case derivation (and every recorded seed) is unchanged by it.
func (c *Case) drawRefinement(t *ftree.T) refinement {
	rng := rand.New(rand.NewSource(c.Seed ^ 0x5e7e9))
	out := c.project
	if out == nil {
		for _, rel := range c.rels {
			out = append(out, rel.Schema...)
		}
	}
	kind := rng.Intn(3)
	var pairs [][2]relation.Attribute
	for i, a := range out {
		for _, b := range out[i+1:] {
			if kind == 1 && t.NodeOf(a) != t.NodeOf(b) {
				pairs = append(pairs, [2]relation.Attribute{a, b})
			}
		}
	}
	if len(pairs) > 0 {
		p := pairs[rng.Intn(len(pairs))]
		return refinement{fmt.Sprintf("%s=%s", p[0], p[1]), fdb.Eq(string(p[0]), string(p[1])),
			func(r *relation.Relation) *relation.Relation {
				i, j := r.Schema.Index(p[0]), r.Schema.Index(p[1])
				return r.Filter(func(t relation.Tuple) bool { return t[i] == t[j] })
			}}
	}
	if kind == 2 {
		var attrs []relation.Attribute
		for _, i := range rng.Perm(len(out))[:1+rng.Intn(len(out))] {
			attrs = append(attrs, out[i])
		}
		for _, k := range c.orderBy {
			if !slices.Contains(attrs, k.Attr) {
				attrs = append(attrs, k.Attr)
			}
		}
		return refinement{fmt.Sprintf("project %v", attrs), projectClause(attrs),
			func(r *relation.Relation) *relation.Relation { return r.Project(attrs) }}
	}
	ops := []fdb.CmpOp{fdb.EQ, fdb.NE, fdb.LT, fdb.LE, fdb.GT, fdb.GE}
	sel := core.ConstSel{A: out[rng.Intn(len(out))], Op: ops[rng.Intn(len(ops))], C: relation.Value(1 + rng.Intn(c.dom))}
	return refinement{fmt.Sprintf("%s %s %d", sel.A, sel.Op, sel.C), c.selClauses([]core.ConstSel{sel})[0],
		func(r *relation.Relation) *relation.Relation {
			i := r.Schema.Index(sel.A)
			return r.Filter(func(t relation.Tuple) bool {
				if c.strs != nil && sel.Op != fdb.EQ && sel.Op != fdb.NE {
					return c.strRangeMatch(t[i], sel)
				}
				return sel.Op.Eval(t[i], sel.C)
			})
		}}
}

// checkAgg compares QueryAgg rows against a straight fold over the flat
// oracle result.
func (c *Case) checkAgg(db Querier, clauses []fdb.Clause, flat *relation.Relation, fail func(string, ...interface{}) error) error {
	res, err := db.QueryAgg(c.aggClauses(clauses)...)
	if err != nil {
		return fail("queryagg: %v", err)
	}
	return c.compareAgg(res, flat, fail)
}

// compareAgg checks one aggregation result against a straight fold of the
// case's grouping and aggregates over the flat oracle result.
func (c *Case) compareAgg(res *fdb.AggResult, flat *relation.Relation, fail func(string, ...interface{}) error) error {
	want := flatAggregate(flat, c.groupBy, c.aggs)
	if res.Len() != len(want) {
		return fail("aggregation has %d groups, oracle %d", res.Len(), len(want))
	}
	for i, w := range want {
		key := res.Key(i)
		for j, kv := range w.Key {
			if key[j] != strconv.FormatInt(int64(kv), 10) {
				return fail("group %d key %v, oracle key %v", i, key, w.Key)
			}
		}
		for j, wv := range w.Vals {
			if got := res.Value(i, j); got != wv {
				return fail("group %d (%v) aggregate %d = %d, oracle %d", i, w.Key, j, got, wv)
			}
		}
	}
	return nil
}

// aggClauses appends the case's grouping and aggregates.
func (c *Case) aggClauses(clauses []fdb.Clause) []fdb.Clause {
	if len(c.groupBy) > 0 {
		gs := make([]string, len(c.groupBy))
		for i, a := range c.groupBy {
			gs[i] = string(a)
		}
		clauses = append(clauses, fdb.GroupBy(gs...))
	}
	for _, s := range c.aggs {
		clauses = append(clauses, fdb.Agg(s.Fn, string(s.Attr)))
	}
	return clauses
}

// flatAggregate folds the aggregates over the flat oracle result — the
// reference semantics for checkAgg. Rows come back sorted by group key,
// matching frep's order.
func flatAggregate(rel *relation.Relation, groupBy []relation.Attribute, specs []frep.AggSpec) []frep.AggRow {
	gcols := make([]int, len(groupBy))
	for i, a := range groupBy {
		gcols[i] = rel.Schema.Index(a)
	}
	acols := make([]int, len(specs))
	for i, s := range specs {
		if s.Fn != frep.AggCount {
			acols[i] = rel.Schema.Index(s.Attr)
		}
	}
	type state struct {
		key  []relation.Value
		cnt  int64
		sum  []int64
		m    []int64
		mSet []bool
		dist []map[relation.Value]struct{}
	}
	groups := map[string]*state{}
	for _, t := range rel.Tuples {
		kb := make([]byte, 0, 16*len(groupBy))
		for _, c := range gcols {
			kb = strconv.AppendInt(kb, int64(t[c]), 10)
			kb = append(kb, '|')
		}
		k := string(kb)
		s, ok := groups[k]
		if !ok {
			s = &state{
				key: make([]relation.Value, len(groupBy)), sum: make([]int64, len(specs)),
				m: make([]int64, len(specs)), mSet: make([]bool, len(specs)),
				dist: make([]map[relation.Value]struct{}, len(specs)),
			}
			for i, c := range gcols {
				s.key[i] = t[c]
			}
			groups[k] = s
		}
		s.cnt++
		for i, sp := range specs {
			switch sp.Fn {
			case frep.AggCount:
			case frep.AggSum:
				s.sum[i] += int64(t[acols[i]])
			case frep.AggMin:
				if v := int64(t[acols[i]]); !s.mSet[i] || v < s.m[i] {
					s.m[i], s.mSet[i] = v, true
				}
			case frep.AggMax:
				if v := int64(t[acols[i]]); !s.mSet[i] || v > s.m[i] {
					s.m[i], s.mSet[i] = v, true
				}
			case frep.AggCountDistinct:
				if s.dist[i] == nil {
					s.dist[i] = map[relation.Value]struct{}{}
				}
				s.dist[i][t[acols[i]]] = struct{}{}
			}
		}
	}
	rows := make([]frep.AggRow, 0, len(groups))
	for _, s := range groups {
		row := frep.AggRow{Key: s.key, Vals: make([]int64, len(specs))}
		for i, sp := range specs {
			switch sp.Fn {
			case frep.AggCount:
				row.Vals[i] = s.cnt
			case frep.AggSum:
				row.Vals[i] = s.sum[i]
			case frep.AggMin, frep.AggMax:
				row.Vals[i] = s.m[i]
			case frep.AggCountDistinct:
				row.Vals[i] = int64(len(s.dist[i]))
			}
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		for k := range rows[i].Key {
			if rows[i].Key[k] != rows[j].Key[k] {
				return rows[i].Key[k] < rows[j].Key[k]
			}
		}
		return false
	})
	return rows
}
