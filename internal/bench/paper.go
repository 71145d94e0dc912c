package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/fbuild"
	"repro/internal/frep"
	"repro/internal/ftree"
	"repro/internal/gen"
	"repro/internal/opt"
	"repro/internal/rdb"
	"repro/internal/relation"
)

// maxBaselineTuples is the hard cap on what the flat baselines of
// Experiment 3 may produce, on top of the time budget.
const maxBaselineTuples = 50_000_000

// schemaQuery draws a query without data: a random schema of r relations
// over a attributes and k non-redundant equalities on it.
func schemaQuery(rng *rand.Rand, r, a, k int) (*core.Query, error) {
	sch, err := gen.RandomSchema(rng, r, a)
	if err != nil {
		return nil, err
	}
	eqs, err := gen.RandomEqualities(rng, sch, k)
	if err != nil {
		return nil, err
	}
	q := &core.Query{Equalities: eqs}
	for j, s := range sch.Relations {
		q.Relations = append(q.Relations, relation.New(sch.Names[j], s))
	}
	return q, nil
}

// drawConditions draws l non-redundant equality conditions on the classes
// of tr: each one merges two classes of a scratch copy, so later conditions
// stay non-redundant.
func drawConditions(rng *rand.Rand, tr *ftree.T, attrs []relation.Attribute, l int) ([]opt.Condition, error) {
	var conds []opt.Condition
	work := tr.Clone()
	for guard := 0; len(conds) < l; guard++ {
		if guard > 100000 {
			return nil, fmt.Errorf("bench: cannot draw %d conditions", l)
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
	return conds, nil
}

// removeNode detaches a node, attaching its children to its parent (class
// bookkeeping only; the tree is a scratch copy used for non-redundancy).
func removeNode(t *ftree.T, n *ftree.Node) {
	siblings := &t.Roots
	if p := t.ParentOf(n); p != nil {
		siblings = &p.Children
	}
	for i, c := range *siblings {
		if c == n {
			*siblings = append((*siblings)[:i], (*siblings)[i+1:]...)
			break
		}
	}
	*siblings = append(*siblings, n.Children...)
}

// optimiseFlat is Experiment 1 (Figure 5): for each (R, K) it optimises
// cfg.Runs random queries of K equalities on R relations over a attributes
// and averages the search time and the optimal tree's cost s(T). Budget
// exhaustions are counted and left out of the averages.
func optimiseFlat(cfg Config, rs, ks []int, a int) (Table, error) {
	t := Table{Header: []string{
		fmt.Sprintf("Experiment 1 (Figure 5): optimal f-tree for a random query, A=%d attributes", a),
		"R K avg_opt_ms avg_s runs budget_failures",
	}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, r := range trim(cfg, rs) {
		for _, k := range trim(cfg, ks) {
			if k >= a {
				continue
			}
			var totMS, totS float64
			runs, failures := 0, 0
			for i := 0; i < cfg.Runs; i++ {
				q, err := schemaQuery(rng, r, a, k)
				if err != nil {
					continue
				}
				start := time.Now()
				_, s, err := opt.OptimalFTree(q.Classes(), q.Schemas(), opt.TreeSearchOptions{})
				if err != nil {
					failures++
					continue
				}
				totMS += ms(start)
				totS += s
				runs++
			}
			t.add("%d %d %.3f %.3f %d %d", r, k, ratio(totMS, float64(runs)), ratio(totS, float64(runs)), runs, failures)
		}
	}
	return t, nil
}

// planSearch is Experiment 2 (Figures 6 and 9): plan and result costs plus
// optimisation times of the full-search and greedy f-plan optimisers, for
// L equalities on the optimal f-tree of K equalities over r relations and a
// attributes. Instances either optimiser cannot plan are left out.
func planSearch(cfg Config, r, a int, ks, ls []int) (Table, error) {
	t := Table{Header: []string{
		fmt.Sprintf("Experiment 2 (Figures 6 and 9): full search vs greedy, R=%d relations, A=%d attributes", r, a),
		"K L full_plan_cost full_result_cost greedy_plan_cost greedy_result_cost full_ms greedy_ms runs",
	}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, k := range trim(cfg, ks) {
		for _, l := range trim(cfg, ls) {
			if k+l >= a {
				continue
			}
			var sum [6]float64
			runs := 0
			for i := 0; i < cfg.Runs; i++ {
				q, err := schemaQuery(rng, r, a, k)
				if err != nil {
					continue
				}
				tr, _, err := opt.OptimalFTree(q.Classes(), q.Schemas(), opt.TreeSearchOptions{})
				if err != nil {
					continue
				}
				conds, err := drawConditions(rng, tr, q.Attributes(), l)
				if err != nil {
					continue
				}
				start := time.Now()
				full, err := opt.ExhaustivePlan(tr, conds, opt.PlanSearchOptions{})
				fullMS := ms(start)
				if err != nil {
					continue
				}
				start = time.Now()
				greedy, err := opt.GreedyPlan(tr, conds)
				greedyMS := ms(start)
				if err != nil {
					continue
				}
				for j, v := range [6]float64{full.Cost, full.FinalS, greedy.Cost, greedy.FinalS, fullMS, greedyMS} {
					sum[j] += v
				}
				runs++
			}
			if runs == 0 {
				continue
			}
			n := float64(runs)
			t.add("%d %d %.3f %.3f %.3f %.3f %.3f %.3f %d", k, l,
				sum[0]/n, sum[1]/n, sum[2]/n, sum[3]/n, sum[4]/n, sum[5]/n, runs)
		}
	}
	return t, nil
}

// flatEvalCells measures one query of Experiment 3 and returns its cells
// (fdb_size … rdb_timeout): FDB optimises and builds the factorised result;
// RDB — the flat oracle every fuzzer compares against, standing in for the
// paper's relational engines — evaluates flat, count-only like the paper's
// no-result-writing runs, under the budget.
func flatEvalCells(q *core.Query, timeout time.Duration) (string, error) {
	start := time.Now()
	tr, _, err := opt.OptimalFTree(q.Classes(), q.Schemas(), opt.TreeSearchOptions{})
	if err != nil {
		return "", err
	}
	fr, err := fbuild.BuildEnc(cloneRels(q.Relations), tr)
	if err != nil {
		return "", err
	}
	fdbMS := ms(start)
	fdbSize := int64(fr.Size())
	flatSize := fr.Count() * int64(len(q.Attributes()))
	// Every singleton lies on some tuple's path, one per class.
	if flatSize > 0 && fdbSize > flatSize {
		return "", fmt.Errorf("bench: factorised size %d exceeds flat size %d", fdbSize, flatSize)
	}
	rres, err := rdb.Evaluate(q, rdb.Options{Timeout: timeout, MaxTuples: maxBaselineTuples})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%d %d %.3f %.3f %v", fdbSize, flatSize, fdbMS,
		float64(rres.Duration.Microseconds())/1000, rres.TimedOut), nil
}

// flatEval is Experiment 3 (Figure 7): query evaluation on flat data, 3
// ternary relations of n tuples with values from [1,100], uniform and Zipf.
func flatEval(cfg Config, ns, ks []int) (Table, error) {
	t := Table{Header: []string{
		"Experiment 3 (Figure 7): 3 ternary relations, values [1,100]",
		"dist N K fdb_size flat_size fdb_ms rdb_ms rdb_timeout",
	}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, dist := range []gen.Distribution{gen.Uniform, gen.Zipf} {
		for _, n := range trim(cfg, ns) {
			for _, k := range trim(cfg, ks) {
				q, err := gen.RandomQuery(rng, 3, 9, n, k, dist, 100)
				if err != nil {
					return t, err
				}
				cells, err := flatEvalCells(q, cfg.Timeout)
				if err != nil {
					return t, err
				}
				t.add("%s %d %d %s", dist, n, k, cells)
			}
		}
	}
	return t, nil
}

// combinatorialEval is the right column of Figure 7: R = 4 relations (two
// binary with 64 tuples, two ternary with 512), values from [1,20].
func combinatorialEval(cfg Config, ks []int) (Table, error) {
	t := Table{Header: []string{
		"Experiment 3 (Figure 7, right): combinatorial dataset, R=4, A=10, values [1,20]",
		"K fdb_size flat_size fdb_ms rdb_ms rdb_timeout",
	}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, k := range trim(cfg, ks) {
		q, err := gen.CombinatorialQuery(rng, k, gen.Uniform)
		if err != nil {
			return t, err
		}
		cells, err := flatEvalCells(q, cfg.Timeout)
		if err != nil {
			return t, err
		}
		t.add("%d %s", k, cells)
	}
	return t, nil
}

// factorisedEval is Experiment 4 (Figure 8): L extra equalities evaluated
// on the factorised result of a K-equality query (FDB, full-search f-plan)
// versus one scan over the flat result (RDB), R=4 relations of 256 tuples
// over A=10 attributes, values from [1,20]. Instances the generator or the
// optimisers cannot produce are left out; the RDB leg is skipped when the
// flat input exceeds maxFlat tuples (materialising it would dominate).
func factorisedEval(cfg Config, ks, ls []int) (Table, error) {
	const (
		relations, attributes, tuples, domain = 4, 10, 256, 20
		maxFlat                               = 3_000_000
	)
	t := Table{Header: []string{
		fmt.Sprintf("Experiment 4 (Figure 8): L equalities on the factorised result of K equalities, R=%d, A=%d", relations, attributes),
		"K L fdb_size flat_size fdb_ms rdb_ms plan_cost rdb_skipped",
	}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, k := range trim(cfg, ks) {
		for _, l := range trim(cfg, ls) {
			if k+l >= attributes {
				continue
			}
			var sum [5]float64 // fdb_size flat_size fdb_ms rdb_ms plan_cost
			skipped := false
			runs := 0
			for i := 0; i < cfg.Runs; i++ {
				fr, plan, conds, err := factorisedInstance(rng, relations, attributes, tuples, k, l, domain)
				if err != nil {
					continue
				}
				sum[4] += plan.Cost
				start := time.Now()
				out, err := plan.Plan.ExecuteEnc(context.TODO(), fr)
				if err != nil {
					return t, err
				}
				sum[2] += ms(start)
				sum[0] += float64(out.Size())
				if !out.IsEmpty() && out.Size() == 0 {
					return t, fmt.Errorf("bench: exp4 K=%d L=%d: non-empty result with zero size", k, l)
				}
				runs++
				if fr.Count() > maxFlat {
					skipped = true
					continue
				}
				pairs := make([][2]relation.Attribute, len(conds))
				for j, c := range conds {
					pairs[j] = [2]relation.Attribute{c.A, c.B}
				}
				rres, err := rdb.SelectEqualities(fr.Relation("flat"), pairs, rdb.Options{Timeout: cfg.Timeout})
				if err != nil {
					return t, err
				}
				sum[3] += float64(rres.Duration.Microseconds()) / 1000
				sum[1] += float64(rres.Elements)
			}
			if runs == 0 {
				continue
			}
			n := float64(runs)
			t.add("%d %d %d %d %.3f %.3f %.3f %v", k, l,
				int64(sum[0]/n), int64(sum[1]/n), sum[2]/n, sum[3]/n, sum[4]/n, skipped)
		}
	}
	return t, nil
}

// factorisedInstance builds one Experiment 4 instance: the factorised
// result of a random K-equality query, L fresh conditions on its classes,
// and their full-search f-plan.
func factorisedInstance(rng *rand.Rand, r, a, n, k, l, m int) (*frep.Enc, opt.PlanResult, []opt.Condition, error) {
	var none opt.PlanResult
	q, err := gen.RandomQuery(rng, r, a, n, k, gen.Uniform, m)
	if err != nil {
		return nil, none, nil, err
	}
	tr, _, err := opt.OptimalFTree(q.Classes(), q.Schemas(), opt.TreeSearchOptions{})
	if err != nil {
		return nil, none, nil, err
	}
	fr, err := fbuild.BuildEnc(cloneRels(q.Relations), tr)
	if err != nil {
		return nil, none, nil, err
	}
	conds, err := drawConditions(rng, tr, q.Attributes(), l)
	if err != nil {
		return nil, none, nil, err
	}
	plan, err := opt.ExhaustivePlan(fr.Tree, conds, opt.PlanSearchOptions{})
	if err != nil {
		return nil, none, nil, err
	}
	return fr, plan, conds, nil
}
