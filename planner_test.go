package fdb

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fplan"
	"repro/internal/frep"
	"repro/internal/ftree"
	"repro/internal/opt"
	"repro/internal/rdb"
	"repro/internal/relation"
)

// skewDB builds a three-relation join whose greedy f-tree costs s=2 while
// the exhaustive optimum costs s=1 — the smallest known instance (drawn
// from the random-schema corpus) where the two searches genuinely disagree,
// so the planning policy has a strictly cheaper tree to find.
func skewDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	db.MustCreate("r1", "x3", "x6", "x8")
	db.MustCreate("r2", "x2", "x7", "x5")
	db.MustCreate("r3", "x1", "x4", "x9")
	for _, r := range [][3]int{{1, 1, 1}, {2, 2, 2}, {1, 2, 3}} {
		db.MustInsert("r1", r[0], r[1], r[2])
	}
	for _, r := range [][3]int{{10, 5, 7}, {11, 6, 8}} {
		db.MustInsert("r2", r[0], r[1], r[2])
	}
	for _, r := range [][3]int{{5, 1, 7}, {6, 2, 8}, {5, 2, 9}} {
		db.MustInsert("r3", r[0], r[1], r[2])
	}
	return db
}

func skewClauses(extra ...Clause) []Clause {
	cs := []Clause{
		From("r1", "r2", "r3"),
		Eq("r2.x5", "r3.x9"),
		Eq("r3.x1", "r2.x7"),
		Eq("r1.x6", "r1.x8"),
		Eq("r3.x4", "r1.x3"),
		Eq("r3.x4", "r1.x6"),
	}
	return append(cs, extra...)
}

// sortedRows renders rows with columns keyed by attribute name and the row
// set sorted: different f-trees of the same query enumerate rows AND
// columns in different orders, so this is the plan-independent comparison.
func sortedRows(t *testing.T, res *Result) []string {
	t.Helper()
	schema := res.Schema()
	var out []string
	for _, row := range res.Rows(0) {
		if len(row) != len(schema) {
			t.Fatalf("row width %d != schema width %d", len(row), len(schema))
		}
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = string(schema[i]) + "=" + v
		}
		sort.Strings(cells)
		out = append(out, strings.Join(cells, "\t"))
	}
	sort.Strings(out)
	return out
}

// skewQuery returns the skew query over db's relations — whose classes and
// schemas are what DB.plan hands planTree — for comparing against opt and the
// flat oracle directly.
func skewQuery(t *testing.T, db *DB) *core.Query {
	t.Helper()
	q := &core.Query{Equalities: []core.Equality{
		{A: "r2.x5", B: "r3.x9"}, {A: "r3.x1", B: "r2.x7"}, {A: "r1.x6", B: "r1.x8"},
		{A: "r3.x4", B: "r1.x3"}, {A: "r3.x4", B: "r1.x6"},
	}}
	for _, name := range []string{"r1", "r2", "r3"} {
		r, ok := db.Relation(name)
		if !ok {
			t.Fatalf("relation %s missing", name)
		}
		q.Relations = append(q.Relations, r)
	}
	return q
}

// flatRows evaluates q with the flat oracle and renders its rows as
// sortedRows renders a result's (integer data only).
func flatRows(t *testing.T, q *core.Query) []string {
	t.Helper()
	flat, err := rdb.Evaluate(q, rdb.Options{Materialize: true})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, tp := range flat.Relation.Tuples {
		cells := make([]string, len(tp))
		for i, v := range tp {
			cells[i] = fmt.Sprintf("%s=%d", flat.Relation.Schema[i], v)
		}
		sort.Strings(cells)
		out = append(out, strings.Join(cells, "\t"))
	}
	sort.Strings(out)
	return out
}

// TestPlanAdoptsStrictlyCheaperTree: the policy serves the optimum from the
// very first Prepare — no warm-up, no cache hits — with the flat oracle's
// rows.
func TestPlanAdoptsStrictlyCheaperTree(t *testing.T) {
	db := skewDB(t)
	q := skewQuery(t, db)
	_, gcost, err := opt.GreedyFTree(q.Classes(), q.Schemas())
	if err != nil {
		t.Fatal(err)
	}
	if gcost != 2 {
		t.Fatalf("skew query lost its skew: greedy cost %v, want 2", gcost)
	}
	st, err := db.Prepare(skewClauses()...)
	if err != nil {
		t.Fatal(err)
	}
	if e := st.Explain(); e.Cost != 1 || e.Search != SearchAdopted {
		t.Fatalf("first Prepare compiled s(T)=%v (%s), want the search's optimum 1", e.Cost, e.Search)
	}
	res, err := st.Exec()
	if err != nil {
		t.Fatal(err)
	}
	rows := sortedRows(t, res)
	if len(rows) == 0 {
		t.Fatal("skew query returned no rows; the fixture is broken")
	}
	if want := flatRows(t, q); strings.Join(want, "\n") != strings.Join(rows, "\n") {
		t.Fatalf("the optimal tree and the flat oracle disagree on rows:\noracle:\n%s\noptimal:\n%s",
			strings.Join(want, "\n"), strings.Join(rows, "\n"))
	}
	if cs := db.CacheStats(); cs.BudgetFallbacks != 0 {
		t.Fatalf("default budget fell back on a three-relation query: %+v", cs)
	}
}

// TestPlanTiesKeepGreedyTree: when the search cannot get strictly below the
// greedy cost the statement keeps the greedy tree itself, not an
// equal-cost sibling — the property benchmark/'s frozen shadow check
// (opt.GreedyFTree == Stmt.FTree()) relies on. Explain says so, and a
// grouped statement's Explain costs its lifted tree.
func TestPlanTiesKeepGreedyTree(t *testing.T) {
	db, clauses, q := chainDB(t, 5)
	gt, gcost, err := opt.GreedyFTree(q.Classes(), q.Schemas())
	if err != nil {
		t.Fatal(err)
	}
	_, ocost, err := opt.OptimalFTree(q.Classes(), q.Schemas(), opt.TreeSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if gcost != ocost {
		t.Fatalf("chain-5: greedy %v vs optimal %v, want a tie", gcost, ocost)
	}
	st, err := db.Prepare(clauses...)
	if err != nil {
		t.Fatal(err)
	}
	if st.FTree() != gt.String() {
		t.Fatalf("tie did not keep the greedy tree:\ncompiled:\n%s\ngreedy:\n%s", st.FTree(), gt)
	}
	if e := st.Explain(); e.Search != GreedyKept || e.Cost != gcost {
		t.Fatalf("tie explained as %s at s(T)=%v, want greedy kept at %v", e.Search, e.Cost, gcost)
	}
	if cs := db.CacheStats(); cs.BudgetFallbacks != 0 {
		t.Fatalf("chain-5 search blew the default budget: %+v", cs)
	}
	// Grouping by the chain's end lifts R1.A over the tree: Explain costs
	// the lifted tree it shows (3), not the planned one (2).
	grouped := mustPrepare(t, db, append(clauses[:len(clauses):len(clauses)], GroupBy("R1.A"), Agg(Count, ""))...)
	if e := grouped.Explain(); e.Cost != 3 || e.Cost != grouped.tree.S() {
		t.Fatalf("grouped by R1.A: explained s(T)=%v, want the lifted tree's 3:\n%s", e.Cost, e.FTree)
	}
}

// chainDB builds the length-n chain join R1.B=R2.A, R2.B=R3.A, … over a few
// tuples per relation, and the same query for opt and the flat oracle.
func chainDB(t *testing.T, n int) (*DB, []Clause, *core.Query) {
	t.Helper()
	db := New()
	q := &core.Query{}
	var from []string
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("R%d", i)
		db.MustCreate(name, "A", "B")
		for j := 1; j <= 3; j++ {
			db.MustInsert(name, j, j%2+1)
		}
		from = append(from, name)
		r, _ := db.Relation(name)
		q.Relations = append(q.Relations, r)
	}
	clauses := []Clause{From(from...)}
	for i := 1; i < n; i++ {
		a, b := fmt.Sprintf("R%d.B", i), fmt.Sprintf("R%d.A", i+1)
		clauses = append(clauses, Eq(a, b))
		q.Equalities = append(q.Equalities, core.Equality{A: relation.Attribute(a), B: relation.Attribute(b)})
	}
	return db, clauses, q
}

// TestWidePrepareStopsAtBudget: a 24-relation chain would take the
// unbudgeted search minutes; Prepare must give up after planBudget nodes,
// count the fallback and serve the greedy tree — never an error.
func TestWidePrepareStopsAtBudget(t *testing.T) {
	db, clauses, q := chainDB(t, 24)
	gt, gcost, err := opt.GreedyFTree(q.Classes(), q.Schemas())
	if err != nil {
		t.Fatal(err)
	}
	// The search planTree runs really does need more than the budget here.
	if _, _, err := opt.OptimalFTree(q.Classes(), q.Schemas(),
		opt.TreeSearchOptions{Budget: planBudget, Below: gcost - costEps}); !errors.Is(err, opt.ErrBudget) {
		t.Fatalf("chain-24 search under planBudget = %v, want ErrBudget", err)
	}
	st, err := db.Prepare(clauses...)
	if err != nil {
		t.Fatalf("wide Prepare: %v", err)
	}
	if e := st.Explain(); st.FTree() != gt.String() || e.Cost != gcost || e.Search != SearchCut {
		t.Fatalf("budget fallback did not keep the greedy tree (cost %v vs %v, %s)", e.Cost, gcost, e.Search)
	}
	if cs := db.CacheStats(); cs.BudgetFallbacks != 1 {
		t.Fatalf("BudgetFallbacks = %d, want 1", cs.BudgetFallbacks)
	}
	if _, err := st.Exec(); err != nil {
		t.Fatal(err)
	}
}

// TestBudgetExhaustionNeverErrors: every search a chain-24 query runs
// exhausts planBudget, and no compile surface may surface opt.ErrBudget —
// for the free search and for the order-constrained one — while results stay
// the flat oracle's and ordered.
func TestBudgetExhaustionNeverErrors(t *testing.T) {
	db, clauses, q := chainDB(t, 24)
	wantRows := strings.Join(flatRows(t, q), "\n")
	with := func(extra ...Clause) []Clause { return append(append([]Clause(nil), clauses...), extra...) }

	if _, err := db.Prepare(clauses...); err != nil {
		t.Fatalf("Prepare: budget exhaustion escaped: %v", err)
	}
	if _, err := db.Prepare(with(Cmp("R1.A", GE, Param("n")))...); err != nil {
		t.Fatalf("parameterised Prepare: budget exhaustion escaped: %v", err)
	}
	res, err := db.Query(with(Distinct())...)
	if err != nil {
		t.Fatalf("Query: budget exhaustion escaped: %v", err)
	}
	if strings.Join(sortedRows(t, res), "\n") != wantRows {
		t.Fatal("fallback plan changed the result")
	}
	free := db.CacheStats().BudgetFallbacks
	if free != 3 {
		t.Fatalf("BudgetFallbacks = %d after three free searches, want 3", free)
	}

	// Ordered: no reordering of the greedy chain-24 tree streams R1.A, so
	// DB.plan runs the order-constrained search too, and it exhausts the
	// budget as well.
	for name, compile := range map[string]func(...Clause) (*Result, error){
		"Query": db.Query,
		"Prepare": func(cs ...Clause) (*Result, error) {
			st, err := db.Prepare(append(cs, Limit(100))...)
			if err != nil {
				return nil, err
			}
			return st.Exec()
		},
	} {
		before := db.CacheStats().BudgetFallbacks
		res, err := compile(with(OrderBy("R1.A"))...)
		if err != nil {
			t.Fatalf("%s: ordered query under budget exhaustion: %v", name, err)
		}
		if got := db.CacheStats().BudgetFallbacks - before; got != 2 {
			t.Fatalf("%s: %d fallbacks, want 2 (free and ordered search)", name, got)
		}
		if strings.Join(sortedRows(t, res), "\n") != wantRows {
			t.Fatalf("%s: fallback plan changed the result", name)
		}
		rows := res.Rows(0)
		col := -1
		for i, a := range res.Schema() {
			if a == "R1.A" {
				col = i
			}
		}
		if col < 0 {
			t.Fatalf("%s: R1.A missing from schema %v", name, res.Schema())
		}
		for i := 1; i < len(rows); i++ {
			if rows[i-1][col] > rows[i][col] {
				t.Fatalf("%s: rows out of order at %d: %v then %v", name, i, rows[i-1], rows[i])
			}
		}
	}
}

// wideHalves creates two products of n two-column relations, L1..Ln and
// R1..Rn, and the conditions Li.B = Ri.A that join them: 4n attributes
// whose f-plan search space grows as 5^n.
func wideHalves(t *testing.T, db *DB, n int) (l, r *Result, eqs []Clause, conds []opt.Condition) {
	t.Helper()
	half := func(side string) *Result {
		var from []string
		for i := 1; i <= n; i++ {
			name := fmt.Sprintf("%s%d", side, i)
			db.MustCreate(name, "A", "B")
			for j := 1; j <= 3; j++ {
				db.MustInsert(name, j, j%2+1)
			}
			from = append(from, name)
		}
		res, err := db.Query(From(from...))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	l, r = half("L"), half("R")
	for i := 1; i <= n; i++ {
		a, b := relation.Attribute(fmt.Sprintf("L%d.B", i)), relation.Attribute(fmt.Sprintf("R%d.A", i))
		eqs = append(eqs, Eq(string(a), string(b)))
		conds = append(conds, opt.Condition{A: a, B: b})
	}
	return l, r, eqs, conds
}

// TestWherePlanFallback: on a product whose f-plan search space (3126
// states) is past fplanBudget, a cold Where gives up at the budget, serves
// the greedy plan with the flat oracle's rows and counts one fallback; the
// plan is cached, so an identical Where is a hit that counts nothing more.
// A search that fails for any other reason returns its error unchanged.
func TestWherePlanFallback(t *testing.T) {
	if fplanBudget != 1024 {
		t.Fatal("internal/fuzz's checkRestructured searches under fplanBudget's value: change both")
	}
	db := New()
	l, r, eqs, conds := wideHalves(t, db, 5)
	prod, err := l.Join(r)
	if err != nil {
		t.Fatal(err)
	}
	before := db.CacheStats()
	res, err := prod.Where(eqs...)
	if err != nil {
		t.Fatalf("wide Where: %v", err)
	}
	cold := db.CacheStats()
	if cold.BudgetFallbacks != before.BudgetFallbacks+1 || cold.Misses != before.Misses+1 {
		t.Fatalf("cold wide Where: %+v -> %+v, want one miss and one budget fallback", before, cold)
	}
	q := &core.Query{}
	for _, name := range db.Relations() {
		rel, _ := db.Relation(name)
		q.Relations = append(q.Relations, rel)
	}
	for _, c := range conds {
		q.Equalities = append(q.Equalities, core.Equality{A: c.A, B: c.B})
	}
	want := flatRows(t, q)
	if got := sortedRows(t, res); len(want) == 0 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("greedy-plan Where returned %d rows, the flat oracle %d", len(got), len(want))
	}
	again, err := prod.Where(eqs...)
	if err != nil {
		t.Fatal(err)
	}
	if warm := db.CacheStats(); warm.Hits != cold.Hits+1 || warm.Misses != cold.Misses || warm.BudgetFallbacks != cold.BudgetFallbacks {
		t.Fatalf("identical Where: %+v -> %+v, want one hit and nothing else", cold, warm)
	}
	if !again.Enc().Equal(res.Enc()) {
		t.Fatal("the cached plan built a different encoding")
	}

	// Any other search error reaches the caller as it is: no greedy plan, no
	// fallback counted, nothing cached.
	a, b := relation.Attribute("A.x"), relation.Attribute("B.y")
	tree := ftree.New([]*ftree.Node{ftree.NewNode(a), ftree.NewNode(b)},
		[]relation.AttrSet{relation.NewAttrSet(a), relation.NewAttrSet(b)})
	bad := []opt.Condition{{A: a, B: "C.z"}} // C.z is not in the tree
	if _, err := opt.ExhaustivePlan(tree, bad, opt.PlanSearchOptions{}); err == nil || errors.Is(err, opt.ErrBudget) {
		t.Fatalf("search over a missing attribute: err = %v, want a non-budget error", err)
	}
	if _, err := opt.GreedyPlan(tree, bad); err == nil {
		t.Fatal("greedy plan over a missing attribute: want an error")
	}
	before = db.CacheStats()
	if got, err := db.planConds(tree, bad); err == nil || errors.Is(err, opt.ErrBudget) || got != nil {
		t.Fatalf("planConds over a missing attribute = %v, %v; want the search's own error", got, err)
	}
	if after := db.CacheStats(); after.BudgetFallbacks != before.BudgetFallbacks {
		t.Fatalf("a failed search counted a budget fallback: %+v -> %+v", before, after)
	}
	for _, ce := range cacheEntries(db) {
		if ce.key == fplanKey(tree, bad) {
			t.Fatal("a failed search left an f-plan in the cache")
		}
	}
}

// example2Conds are the conditions of Example 2's Q1 ⋈ Q2 (the benchmark
// session's join shape).
var example2Conds = []opt.Condition{{A: "Orders.item", B: "Produce.item"}, {A: "Store.location", B: "Serve.location"}}

// example2 runs Q1, Q2 and their Example 2 join over the current data.
func example2(t *testing.T, db *DB) (r1, r2, joined *Result) {
	t.Helper()
	r1, r2 = q1(t, db), q2(t, db)
	joined, err := r1.Join(r2, Eq("Orders.item", "Produce.item"), Eq("Store.location", "Serve.location"))
	if err != nil {
		t.Fatal(err)
	}
	return r1, r2, joined
}

// freshJoin is Join without the plan cache: the product, a fresh
// ExhaustivePlan and the plan's operators.
func freshJoin(t *testing.T, r1, r2 *Result, conds []opt.Condition) *frep.Enc {
	t.Helper()
	prod, err := fplan.ProductEnc(r1.Enc(), r2.Enc())
	if err != nil {
		t.Fatal(err)
	}
	found, err := opt.ExhaustivePlan(prod.Tree, conds, opt.PlanSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := found.Plan.ExecuteEnc(context.Background(), prod)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestJoinPlansOnce: a Join of same-shaped inputs — here after writes changed
// the data under both — reuses the cached f-plan (one hit, no miss), and
// either way the joined encoding is exactly what a fresh search builds.
func TestJoinPlansOnce(t *testing.T) {
	db := grocery(t)
	r1, r2, joined := example2(t, db)
	if !joined.Enc().Equal(freshJoin(t, r1, r2, example2Conds)) {
		t.Fatal("cold Join differs from product + ExhaustivePlan + ExecuteEnc")
	}
	db.MustInsert("Orders", "04", "Milk")
	db.MustInsert("Serve", "Guney", "Izmir")
	r1, r2 = q1(t, db), q2(t, db)
	before := db.CacheStats()
	again, err := r1.Join(r2, Eq("Orders.item", "Produce.item"), Eq("Store.location", "Serve.location"))
	if err != nil {
		t.Fatal(err)
	}
	if after := db.CacheStats(); after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("second Join of the same shape: %+v -> %+v, want one hit and no miss", before, after)
	}
	if again.Count() <= joined.Count() {
		t.Fatalf("the writes did not reach the second Join: %d -> %d tuples", joined.Count(), again.Count())
	}
	if !again.Enc().Equal(freshJoin(t, r1, r2, example2Conds)) {
		t.Fatal("cached-plan Join differs from product + ExhaustivePlan + ExecuteEnc")
	}
}

// TestFPlanKeyIsExactStructure: the f-plan cache key tells apart trees that
// differ only in sibling order, a hidden or const marker, or Deps, and
// condition lists that differ only in order — ExhaustivePlan breaks ties in
// sibling and condition order, so any of these may change the plan.
// Canonical() would conflate the sibling-order and Deps variants.
func TestFPlanKeyIsExactStructure(t *testing.T) {
	base := func() *ftree.T {
		return ftree.New([]*ftree.Node{ftree.NewNode("A").Add(ftree.NewNode("B"), ftree.NewNode("C"))},
			[]relation.AttrSet{relation.NewAttrSet("A", "B"), relation.NewAttrSet("A", "C")})
	}
	conds := []opt.Condition{{A: "A", B: "B"}, {A: "B", B: "C"}}
	key := fplanKey(base(), conds)
	if fplanKey(base(), conds) != key {
		t.Fatal("the key of one structure is not deterministic")
	}
	for name, v := range map[string]struct {
		edit      func(*ftree.T)
		conds     []opt.Condition
		canonical bool // Canonical() cannot tell this variant from base
	}{
		"sibling order":   {func(t *ftree.T) { k := t.Roots[0].Children; k[0], k[1] = k[1], k[0] }, conds, true},
		"hidden marker":   {func(t *ftree.T) { t.Hidden.Add("B") }, conds, false},
		"const marker":    {func(t *ftree.T) { t.Consts.Add("C") }, conds, false},
		"deps":            {func(t *ftree.T) { t.Deps[1] = relation.NewAttrSet("C") }, conds, true},
		"condition order": {func(*ftree.T) {}, []opt.Condition{conds[1], conds[0]}, true},
	} {
		tr := base()
		v.edit(tr)
		if fplanKey(tr, v.conds) == key {
			t.Errorf("%s: same f-plan key as the base tree", name)
		}
		if v.canonical && tr.Canonical() != base().Canonical() {
			t.Errorf("%s: Canonical() tells it apart after all; the case no longer shows why the key is exact", name)
		}
	}
}

// TestConcurrentJoinsSharePlan: Joins racing on a cold plan cache (run under
// -race) all build the fresh search's encoding, and leave one f-plan entry.
func TestConcurrentJoinsSharePlan(t *testing.T) {
	db := grocery(t)
	r1, r2 := q1(t, db), q2(t, db)
	want := freshJoin(t, r1, r2, example2Conds)
	entries := db.CacheStats().Entries
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				joined, err := r1.Join(r2, Eq("Orders.item", "Produce.item"), Eq("Store.location", "Serve.location"))
				if err != nil {
					t.Error(err)
					return
				}
				if !joined.Enc().Equal(want) {
					t.Error("a concurrent Join built a different encoding")
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := db.CacheStats().Entries; got != entries+1 {
		t.Fatalf("80 concurrent Joins left %d new cache entries, want 1", got-entries)
	}
}
