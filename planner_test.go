package fdb

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/opt"
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

// skewTrees returns the skew query's attribute classes and relation schemas
// — what DB.plan hands planTree — for comparing against opt directly.
func skewTrees(t *testing.T, db *DB) (classes, schemas []relation.AttrSet) {
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
	return q.Classes(), q.Schemas()
}

// TestPlanAdoptsStrictlyCheaperTree: the policy serves the optimum from the
// very first Prepare — no warm-up, no cache hits — on every compile surface,
// with the rows the greedy tree would have produced.
func TestPlanAdoptsStrictlyCheaperTree(t *testing.T) {
	db := skewDB(t)
	classes, schemas := skewTrees(t, db)
	_, gcost, err := opt.GreedyFTree(classes, schemas)
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
	if st.Cost() != 1 {
		t.Fatalf("first Prepare compiled s(T)=%v, want the optimum 1", st.Cost())
	}
	cst, err := db.PrepareCached(skewClauses()...)
	if err != nil {
		t.Fatal(err)
	}
	if cst.Cost() != 1 {
		t.Fatalf("first PrepareCached compiled s(T)=%v, want 1", cst.Cost())
	}
	res, err := st.Exec()
	if err != nil {
		t.Fatal(err)
	}
	rows := sortedRows(t, res)
	if len(rows) == 0 {
		t.Fatal("skew query returned no rows; the fixture is broken")
	}
	// The same query pinned to its greedy tree (a search that dies at once).
	gdb := skewDB(t)
	gdb.planBudget = 1
	gst, err := gdb.Prepare(skewClauses()...)
	if err != nil {
		t.Fatal(err)
	}
	if gst.Cost() != gcost {
		t.Fatalf("budget-starved Prepare compiled s(T)=%v, want the greedy %v", gst.Cost(), gcost)
	}
	gres, err := gst.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedRows(t, gres); strings.Join(got, "\n") != strings.Join(rows, "\n") {
		t.Fatalf("greedy and optimal trees disagree on rows:\ngreedy:\n%s\noptimal:\n%s",
			strings.Join(got, "\n"), strings.Join(rows, "\n"))
	}
	if cs := db.CacheStats(); cs.BudgetFallbacks != 0 {
		t.Fatalf("default budget fell back on a three-relation query: %+v", cs)
	}
}

// TestPlanTiesKeepGreedyTree: when the search cannot get strictly below the
// greedy cost the statement keeps the greedy tree itself, not an
// equal-cost sibling — the property benchmark/'s frozen shadow check
// (opt.GreedyFTree == Stmt.FTree()) relies on.
func TestPlanTiesKeepGreedyTree(t *testing.T) {
	db, clauses, classes, schemas := chainDB(t, 5)
	gt, gcost, err := opt.GreedyFTree(classes, schemas)
	if err != nil {
		t.Fatal(err)
	}
	_, ocost, err := opt.OptimalFTree(classes, schemas, opt.TreeSearchOptions{})
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
	if cs := db.CacheStats(); cs.BudgetFallbacks != 0 {
		t.Fatalf("chain-5 search blew the default budget: %+v", cs)
	}
}

// chainDB builds the length-n chain join R1.B=R2.A, R2.B=R3.A, … over a few
// tuples per relation, and its classes/schemas for opt.
func chainDB(t *testing.T, n int) (*DB, []Clause, []relation.AttrSet, []relation.AttrSet) {
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
	return db, clauses, q.Classes(), q.Schemas()
}

// TestWidePrepareStopsAtBudget: a 24-relation chain would take the
// unbudgeted search minutes; Prepare must give up after planBudget nodes,
// count the fallback and serve the greedy tree — never an error.
func TestWidePrepareStopsAtBudget(t *testing.T) {
	db, clauses, classes, schemas := chainDB(t, 24)
	gt, gcost, err := opt.GreedyFTree(classes, schemas)
	if err != nil {
		t.Fatal(err)
	}
	// The search planTree runs really does need more than the budget here.
	if _, _, err := opt.OptimalFTree(classes, schemas,
		opt.TreeSearchOptions{Budget: planBudget, Below: gcost - costEps}); !errors.Is(err, opt.ErrBudget) {
		t.Fatalf("chain-24 search under planBudget = %v, want ErrBudget", err)
	}
	st, err := db.Prepare(clauses...)
	if err != nil {
		t.Fatalf("wide Prepare: %v", err)
	}
	if st.FTree() != gt.String() || st.Cost() != gcost {
		t.Fatalf("budget fallback did not keep the greedy tree (cost %v vs %v)", st.Cost(), gcost)
	}
	if cs := db.CacheStats(); cs.BudgetFallbacks != 1 {
		t.Fatalf("BudgetFallbacks = %d, want 1", cs.BudgetFallbacks)
	}
	if _, err := st.Exec(); err != nil {
		t.Fatal(err)
	}
}

// TestBudgetExhaustionNeverErrors: with a budget every search blows at
// once, no compile surface may surface opt.ErrBudget — for the free search
// and for the order-constrained one — and results stay right and ordered.
func TestBudgetExhaustionNeverErrors(t *testing.T) {
	want, err := skewDB(t).Query(skewClauses()...)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := strings.Join(sortedRows(t, want), "\n")

	db := skewDB(t)
	db.planBudget = 1
	if _, err := db.Prepare(skewClauses()...); err != nil {
		t.Fatalf("Prepare: budget exhaustion escaped: %v", err)
	}
	if _, err := db.PrepareCached(skewClauses(Cmp("r2.x2", GE, Param("n")))...); err != nil {
		t.Fatalf("PrepareCached: budget exhaustion escaped: %v", err)
	}
	res, err := db.Query(skewClauses()...)
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

	// Ordered: on the skew query no reordering of the free tree streams
	// r2.x2, so DB.plan runs the order-constrained search too.
	for name, compile := range map[string]func(...Clause) (*Result, error){
		"Query": db.Query,
		"Prepare": func(cs ...Clause) (*Result, error) {
			st, err := db.Prepare(cs...)
			if err != nil {
				return nil, err
			}
			return st.Exec()
		},
		"PrepareCached": func(cs ...Clause) (*Result, error) {
			st, err := db.PrepareCached(append(cs, Limit(100))...)
			if err != nil {
				return nil, err
			}
			return st.Exec()
		},
	} {
		before := db.CacheStats().BudgetFallbacks
		res, err := compile(skewClauses(OrderBy("r2.x2"))...)
		if err != nil {
			t.Fatalf("%s: ordered query under budget exhaustion: %v", name, err)
		}
		if got := db.CacheStats().BudgetFallbacks - before; got != 2 {
			t.Fatalf("%s: %d fallbacks, want 2 (free and ordered search)", name, got)
		}
		rows := res.Rows(0)
		if len(rows) == 0 {
			t.Fatalf("%s: no rows", name)
		}
		col := -1
		for i, a := range res.Schema() {
			if a == "r2.x2" {
				col = i
			}
		}
		if col < 0 {
			t.Fatalf("%s: r2.x2 missing from schema %v", name, res.Schema())
		}
		for i := 1; i < len(rows); i++ {
			if rows[i-1][col] > rows[i][col] {
				t.Fatalf("%s: rows out of order at %d: %v then %v", name, i, rows[i-1], rows[i])
			}
		}
	}
}
