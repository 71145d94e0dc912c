// Package bench is the experiment harness that regenerates every figure of
// the paper's evaluation (Section 5). Each ExperimentN function reproduces
// the workload of the corresponding experiment and returns the series the
// paper plots; cmd/fdbench prints them, and the repository-level Go
// benchmarks wrap them for `go test -bench`. See DESIGN.md for the
// per-experiment index and EXPERIMENTS.md for recorded results.
package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/fbuild"
	"repro/internal/fplan"
	"repro/internal/ftree"
	"repro/internal/gen"
	"repro/internal/opt"
	"repro/internal/rdb"
	"repro/internal/relation"
	"repro/internal/volcano"
)

// Exp1Row is one point of Figure 5: optimisation time and optimal-tree cost
// for a random query with K equalities on R relations over A attributes.
type Exp1Row struct {
	R, A, K  int
	AvgMS    float64 // average optimisation time, milliseconds
	AvgS     float64 // average cost s(T) of the optimal f-tree
	Runs     int
	Failures int // budget exhaustions (counted, excluded from averages)
}

// Experiment1 reproduces Figure 5: for each (R, K) it optimises `runs`
// random queries over A attributes and averages time and cost.
func Experiment1(rng *rand.Rand, rs []int, ks []int, a, runs int) []Exp1Row {
	var out []Exp1Row
	for _, r := range rs {
		for _, k := range ks {
			if k >= a {
				continue
			}
			row := Exp1Row{R: r, A: a, K: k}
			var totMS, totS float64
			for i := 0; i < runs; i++ {
				sch, err := gen.RandomSchema(rng, r, a)
				if err != nil {
					continue
				}
				eqs, err := gen.RandomEqualities(rng, sch, k)
				if err != nil {
					continue
				}
				q := &core.Query{Equalities: eqs}
				for j, s := range sch.Relations {
					q.Relations = append(q.Relations, relation.New(sch.Names[j], s))
				}
				start := time.Now()
				_, s, err := opt.OptimalFTree(q.Classes(), q.Schemas(), opt.TreeSearchOptions{})
				if err != nil {
					row.Failures++
					continue
				}
				totMS += float64(time.Since(start).Microseconds()) / 1000
				totS += s
				row.Runs++
			}
			if row.Runs > 0 {
				row.AvgMS = totMS / float64(row.Runs)
				row.AvgS = totS / float64(row.Runs)
			}
			out = append(out, row)
		}
	}
	return out
}

// Exp2Row is one point of Figures 6 and 9: plan and result costs plus
// optimisation times of the full-search and greedy optimisers, for queries
// of L equalities on an f-tree resulting from K equalities.
type Exp2Row struct {
	K, L                int
	FullPlanCost        float64
	FullResultCost      float64
	GreedyPlanCost      float64
	GreedyResultCost    float64
	FullMS, GreedyMS    float64
	Runs, FullBudgetHit int
}

// exp2Instance builds an input f-tree (K equalities, R relations, A
// attributes) and L fresh conditions on its classes.
func exp2Instance(rng *rand.Rand, r, a, k, l int) (*ftree.T, []opt.Condition, error) {
	sch, err := gen.RandomSchema(rng, r, a)
	if err != nil {
		return nil, nil, err
	}
	eqs, err := gen.RandomEqualities(rng, sch, k)
	if err != nil {
		return nil, nil, err
	}
	q := &core.Query{Equalities: eqs}
	for j, s := range sch.Relations {
		q.Relations = append(q.Relations, relation.New(sch.Names[j], s))
	}
	tr, _, err := opt.OptimalFTree(q.Classes(), q.Schemas(), opt.TreeSearchOptions{})
	if err != nil {
		return nil, nil, err
	}
	// L non-redundant conditions on the classes of tr.
	attrs := q.Attributes()
	var conds []opt.Condition
	work := tr.Clone()
	guard := 0
	for len(conds) < l {
		guard++
		if guard > 100000 {
			return nil, nil, fmt.Errorf("bench: cannot draw %d conditions", l)
		}
		x := attrs[rng.Intn(len(attrs))]
		y := attrs[rng.Intn(len(attrs))]
		nx, ny := work.NodeOf(x), work.NodeOf(y)
		if nx == nil || ny == nil || nx == ny {
			continue
		}
		// Mark as merged on the working copy so later conditions stay
		// non-redundant.
		nx.Attrs = append(nx.Attrs, ny.Attrs...)
		removeNode(work, ny)
		conds = append(conds, opt.Condition{A: x, B: y})
	}
	return tr, conds, nil
}

// removeNode detaches a node, attaching its children to its parent (class
// bookkeeping only; the tree is a scratch copy used for non-redundancy).
func removeNode(t *ftree.T, n *ftree.Node) {
	p := t.ParentOf(n)
	if p == nil {
		for i, r := range t.Roots {
			if r == n {
				t.Roots = append(t.Roots[:i], t.Roots[i+1:]...)
				break
			}
		}
		t.Roots = append(t.Roots, n.Children...)
		return
	}
	for i, c := range p.Children {
		if c == n {
			p.Children = append(p.Children[:i], p.Children[i+1:]...)
			break
		}
	}
	p.Children = append(p.Children, n.Children...)
}

// Experiment2 reproduces Figures 6 and 9 for R relations and A attributes.
func Experiment2(rng *rand.Rand, r, a int, ks, ls []int, runs int) []Exp2Row {
	var out []Exp2Row
	for _, k := range ks {
		for _, l := range ls {
			if k+l >= a {
				continue
			}
			row := Exp2Row{K: k, L: l}
			for i := 0; i < runs; i++ {
				tr, conds, err := exp2Instance(rng, r, a, k, l)
				if err != nil {
					continue
				}
				start := time.Now()
				full, err := opt.ExhaustivePlan(tr, conds, opt.PlanSearchOptions{})
				fullMS := float64(time.Since(start).Microseconds()) / 1000
				if err != nil {
					row.FullBudgetHit++
					continue
				}
				start = time.Now()
				greedy, err := opt.GreedyPlan(tr, conds)
				greedyMS := float64(time.Since(start).Microseconds()) / 1000
				if err != nil {
					continue
				}
				row.FullPlanCost += full.Cost
				row.FullResultCost += full.FinalS
				row.GreedyPlanCost += greedy.Cost
				row.GreedyResultCost += greedy.FinalS
				row.FullMS += fullMS
				row.GreedyMS += greedyMS
				row.Runs++
			}
			if row.Runs > 0 {
				f := float64(row.Runs)
				row.FullPlanCost /= f
				row.FullResultCost /= f
				row.GreedyPlanCost /= f
				row.GreedyResultCost /= f
				row.FullMS /= f
				row.GreedyMS /= f
			}
			out = append(out, row)
		}
	}
	return out
}

// Exp3Row is one point of Figure 7: result sizes (# data elements) and
// evaluation times of FDB, RDB and the Volcano stand-in on flat input.
type Exp3Row struct {
	N, K          int
	Dist          gen.Distribution
	FDBSize       int64 // singletons in the factorised result
	FlatSize      int64 // tuples x attributes of the flat result
	FDBMS         float64
	RDBMS         float64
	VolcanoMS     float64
	RDBTimedOut   bool
	VolcTimedOut  bool
	OptimalS      float64
	FactorisedCnt int64 // tuple count of the result
}

// Exp3Config parameterises Experiment 3.
type Exp3Config struct {
	Relations  int // R
	Attributes int // A (spread evenly)
	N          int // tuples per relation
	K          int // equalities
	M          int // value domain [1, M]
	Dist       gen.Distribution
	Timeout    time.Duration // relational-engine budget (paper: 100 s)
	MaxTuples  int64         // optional hard cap for the baselines
}

// Experiment3Point runs one configuration: generate data, find the optimal
// f-tree, evaluate factorised with FDB, flat with RDB and Volcano.
func Experiment3Point(rng *rand.Rand, cfg Exp3Config) (Exp3Row, error) {
	q, err := gen.RandomQuery(rng, cfg.Relations, cfg.Attributes, cfg.N, cfg.K, cfg.Dist, cfg.M)
	if err != nil {
		return Exp3Row{N: cfg.N, K: cfg.K, Dist: cfg.Dist}, err
	}
	return Exp3FromQuery(q, cfg)
}

// Exp3FromQuery runs the Experiment 3 measurement on a prebuilt query
// (used for the combinatorial dataset of Figure 7's right column).
func Exp3FromQuery(q *core.Query, cfg Exp3Config) (Exp3Row, error) {
	row := Exp3Row{N: cfg.N, K: cfg.K, Dist: cfg.Dist}
	// FDB: optimise + build factorised result.
	start := time.Now()
	tr, s, err := opt.OptimalFTree(q.Classes(), q.Schemas(), opt.TreeSearchOptions{})
	if err != nil {
		return row, err
	}
	fr, err := fbuild.BuildEnc(cloneRels(q.Relations), tr)
	if err != nil {
		return row, err
	}
	row.FDBMS = float64(time.Since(start).Microseconds()) / 1000
	row.OptimalS = s
	row.FDBSize = int64(fr.Size())
	row.FactorisedCnt = fr.Count()
	row.FlatSize = row.FactorisedCnt * int64(len(q.Attributes()))

	// RDB (count-only, like the paper's no-result-writing runs).
	rres, err := rdb.Evaluate(q, rdb.Options{Timeout: cfg.Timeout, MaxTuples: cfg.MaxTuples})
	if err != nil {
		return row, err
	}
	row.RDBMS = float64(rres.Duration.Microseconds()) / 1000
	row.RDBTimedOut = rres.TimedOut

	// Volcano stand-in for SQLite/PostgreSQL.
	vres, err := volcano.Evaluate(q, volcano.Options{Timeout: cfg.Timeout, MaxTuples: cfg.MaxTuples})
	if err != nil {
		return row, err
	}
	row.VolcanoMS = float64(vres.Duration.Microseconds()) / 1000
	row.VolcTimedOut = vres.TimedOut
	return row, nil
}

// Exp4Row is one point of Figure 8: size and time of evaluating L extra
// equalities on a factorised result (FDB, full-search f-plan) versus one
// scan over the flat result (RDB).
type Exp4Row struct {
	K, L        int
	FDBSize     int64
	FlatSize    int64
	FDBMS       float64
	RDBMS       float64
	PlanCost    float64
	RDBSkipped  bool // flat input too large to materialise
	EmptyResult bool
}

// Exp4Config parameterises Experiment 4.
type Exp4Config struct {
	Relations, Attributes, N, K, L, M int
	Dist                              gen.Distribution
	Timeout                           time.Duration
	// MaxFlat skips the RDB leg when the flat input exceeds this tuple
	// count (materialising it would dominate the benchmark).
	MaxFlat int64
}

// Experiment4Point builds the K-equality factorised result, draws L fresh
// conditions, optimises an f-plan with full search, executes it with FDB,
// and compares with RDB's single scan over the flat input.
func Experiment4Point(rng *rand.Rand, cfg Exp4Config) (Exp4Row, error) {
	row := Exp4Row{K: cfg.K, L: cfg.L}
	q, err := gen.RandomQuery(rng, cfg.Relations, cfg.Attributes, cfg.N, cfg.K, cfg.Dist, cfg.M)
	if err != nil {
		return row, err
	}
	tr, _, err := opt.OptimalFTree(q.Classes(), q.Schemas(), opt.TreeSearchOptions{})
	if err != nil {
		return row, err
	}
	fr, err := fbuild.BuildEnc(cloneRels(q.Relations), tr)
	if err != nil {
		return row, err
	}
	// Draw L non-redundant conditions on the classes of tr.
	attrs := q.Attributes()
	var conds []opt.Condition
	work := tr.Clone()
	guard := 0
	for len(conds) < cfg.L {
		guard++
		if guard > 100000 {
			return row, fmt.Errorf("bench: cannot draw %d conditions", cfg.L)
		}
		x := attrs[rng.Intn(len(attrs))]
		y := attrs[rng.Intn(len(attrs))]
		nx, ny := work.NodeOf(x), work.NodeOf(y)
		if nx == nil || ny == nil || nx == ny {
			continue
		}
		nx.Attrs = append(nx.Attrs, ny.Attrs...)
		removeNode(work, ny)
		conds = append(conds, opt.Condition{A: x, B: y})
	}

	// FDB: optimise f-plan (full search) and execute on the representation.
	res, err := opt.ExhaustivePlan(fr.Tree, conds, opt.PlanSearchOptions{})
	if err != nil {
		return row, err
	}
	row.PlanCost = res.Cost
	start := time.Now()
	exec, err := res.Plan.ExecuteEnc(context.TODO(), fr)
	if err != nil {
		return row, err
	}
	row.FDBMS = ms(start)
	row.FDBSize = int64(exec.Size())
	row.EmptyResult = exec.IsEmpty()

	// RDB: one scan over the flat input with the L equality conditions.
	flatTuples := fr.Count()
	if cfg.MaxFlat > 0 && flatTuples > cfg.MaxFlat {
		row.RDBSkipped = true
		return row, nil
	}
	flat := fr.Relation("flat")
	pairs := make([][2]relation.Attribute, len(conds))
	for i, c := range conds {
		pairs[i] = [2]relation.Attribute{c.A, c.B}
	}
	rres, err := rdb.SelectEqualities(flat, pairs, rdb.Options{Timeout: cfg.Timeout})
	if err != nil {
		return row, err
	}
	row.RDBMS = float64(rres.Duration.Microseconds()) / 1000
	row.FlatSize = rres.Elements
	return row, nil
}

func cloneRels(rels []*relation.Relation) []*relation.Relation {
	out := make([]*relation.Relation, len(rels))
	for i, r := range rels {
		out[i] = r.Clone()
	}
	return out
}

// GrocerySmoke runs the paper's running example end to end (Examples 1 and
// 2): Q1 and Q2 factorised, joined on item and location via an f-plan. It
// returns the sizes the introduction quotes and is used by tests and the
// quickstart.
func GrocerySmoke() (q1Size, q2Size, joinedSize int, err error) {
	rels, _ := gen.Grocery()
	q1 := &core.Query{
		Relations: rels[:3],
		Equalities: []core.Equality{
			{A: "o_item", B: "s_item"},
			{A: "s_location", B: "d_location"},
		},
	}
	t1, _, err := opt.OptimalFTree(q1.Classes(), q1.Schemas(), opt.TreeSearchOptions{})
	if err != nil {
		return 0, 0, 0, err
	}
	f1, err := fbuild.BuildEnc(cloneRels(q1.Relations), t1)
	if err != nil {
		return 0, 0, 0, err
	}
	q2 := &core.Query{
		Relations:  rels[3:],
		Equalities: []core.Equality{{A: "p_supplier", B: "v_supplier"}},
	}
	t2, _, err := opt.OptimalFTree(q2.Classes(), q2.Schemas(), opt.TreeSearchOptions{})
	if err != nil {
		return 0, 0, 0, err
	}
	f2, err := fbuild.BuildEnc(cloneRels(q2.Relations), t2)
	if err != nil {
		return 0, 0, 0, err
	}
	// Q1 ⋈ Q2 on item and location (Example 2).
	prod, err := fplan.ProductEnc(f1, f2)
	if err != nil {
		return 0, 0, 0, err
	}
	conds := []opt.Condition{
		{A: "o_item", B: "p_item"},
		{A: "s_location", B: "v_location"},
	}
	plan, err := opt.ExhaustivePlan(prod.Tree, conds, opt.PlanSearchOptions{})
	if err != nil {
		return 0, 0, 0, err
	}
	joined, err := plan.Plan.ExecuteEnc(context.TODO(), prod)
	if err != nil {
		return 0, 0, 0, err
	}
	return f1.Size(), f2.Size(), joined.Size(), nil
}

// VerifyGroceryJoin recomputes the Example 2 join relationally and checks
// the factorised pipeline result against it; used by tests.
func VerifyGroceryJoin() error {
	rels, _ := gen.Grocery()
	full := &core.Query{
		Relations: rels,
		Equalities: []core.Equality{
			{A: "o_item", B: "s_item"},
			{A: "s_location", B: "d_location"},
			{A: "p_supplier", B: "v_supplier"},
			{A: "o_item", B: "p_item"},
			{A: "s_location", B: "v_location"},
		},
	}
	want, err := full.EvaluateFlat()
	if err != nil {
		return err
	}

	// Factorised pipeline as in GrocerySmoke.
	q1 := &core.Query{Relations: rels[:3], Equalities: full.Equalities[:2]}
	t1, _, err := opt.OptimalFTree(q1.Classes(), q1.Schemas(), opt.TreeSearchOptions{})
	if err != nil {
		return err
	}
	f1, err := fbuild.BuildEnc(cloneRels(q1.Relations), t1)
	if err != nil {
		return err
	}
	q2 := &core.Query{Relations: rels[3:], Equalities: full.Equalities[2:3]}
	t2, _, err := opt.OptimalFTree(q2.Classes(), q2.Schemas(), opt.TreeSearchOptions{})
	if err != nil {
		return err
	}
	f2, err := fbuild.BuildEnc(cloneRels(q2.Relations), t2)
	if err != nil {
		return err
	}
	prod, err := fplan.ProductEnc(f1, f2)
	if err != nil {
		return err
	}
	conds := []opt.Condition{
		{A: "o_item", B: "p_item"},
		{A: "s_location", B: "v_location"},
	}
	plan, err := opt.ExhaustivePlan(prod.Tree, conds, opt.PlanSearchOptions{})
	if err != nil {
		return err
	}
	joined, err := plan.Plan.ExecuteEnc(context.TODO(), prod)
	if err != nil {
		return err
	}
	got := joined.Relation("got").Project(want.Schema)
	if !got.Equal(want) {
		return fmt.Errorf("bench: factorised grocery join differs from relational result (%d vs %d tuples)",
			got.Cardinality(), want.Cardinality())
	}
	return nil
}

func ms(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}
