package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/fbuild"
	"repro/internal/frep"
	"repro/internal/ftree"
	"repro/internal/gen"
	"repro/internal/opt"
)

// treeSearch is Experiment 13: cold planning latency of the greedy
// statistics-free f-tree search against the exhaustive branch-and-bound
// search, on the retailer join — the OLTP-shaped case where greedy should
// land on the optimal tree outright — and on the chain join of Example 6 (30
// tuples per relation, values from [1,10], so the parity builds stay cheap),
// where the exhaustive search's exponential blowup shows while the greedy
// search stays polynomial. The timed legs call the two searches directly on
// the workload's attribute classes (the way Experiments 1 and 2 time the
// optimiser), iters times each, so data-dependent Prepare work doesn't mask
// the search. Before any timing, both trees are built over the workload's
// data and their flat results compared, and the greedy tree's cost s(T)
// must stay within maxCostRatio of the exhaustive optimum.
func treeSearch(cfg Config, retailer, chain []int, iters int, maxCostRatio float64) (Table, error) {
	t := Table{Header: []string{
		"Experiment 13: greedy statistics-free f-tree search vs exhaustive branch-and-bound — cold search latency and plan cost",
		"workload scale result_tuples greedy_us exhaustive_us speedup greedy_cost optimal_cost cost_ratio",
	}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	point := func(name string, scale int, query func() *core.Query) error {
		// result_tuples greedy_us exhaustive_us greedy_cost optimal_cost
		m, err := mean(cfg.Runs, func() ([][]float64, error) {
			row, err := treeSearchPoint(query(), iters, maxCostRatio)
			if err != nil {
				err = fmt.Errorf("bench: exp13 %s/%d: %w", name, scale, err)
			}
			return one(row, err)
		})
		if err != nil {
			return err
		}
		r := m[0]
		t.add("%s %d %d %.1f %.1f %.1f %.3f %.3f %.3f", name, scale, int64(r[0]),
			r[1], r[2], ratio(r[2], r[1]), r[3], r[4], ratio(r[3], r[4]))
		return nil
	}
	for _, scale := range trim(cfg, retailer) {
		if err := point("retailer", scale, func() *core.Query { return RetailerQuery(rng, scale) }); err != nil {
			return t, err
		}
	}
	for _, n := range trim(cfg, chain) {
		if err := point("chain", n, func() *core.Query { return gen.ChainQuery(rng, n, 30, 10) }); err != nil {
			return t, err
		}
	}
	return t, nil
}

// treeSearchPoint runs one measurement: search both trees for the query,
// enforce the cost-ratio bar, parity-check the two trees' builds, then time
// the two searches on the query's attribute classes.
func treeSearchPoint(q *core.Query, iters int, maxCostRatio float64) ([]float64, error) {
	classes, schemas := q.Classes(), q.Schemas()
	gtree, gcost, err := opt.GreedyFTree(classes, schemas)
	if err != nil {
		return nil, err
	}
	otree, ocost, err := opt.OptimalFTree(classes, schemas, opt.TreeSearchOptions{})
	if err != nil {
		return nil, err
	}
	if ratio(gcost, ocost) > maxCostRatio {
		return nil, fmt.Errorf("greedy plan cost %.3f exceeds %.0f%% of optimal %.3f", gcost, 100*maxCostRatio, ocost)
	}

	// Parity precheck: both trees must represent the same flat result.
	var encs [2]*frep.Enc
	for i, tree := range []*ftree.T{gtree, otree} {
		if encs[i], err = fbuild.BuildEnc(cloneRels(q.Relations), tree); err != nil {
			return nil, err
		}
	}
	// Equal compares as sets, modulo tuple order; the counts rule out
	// duplicates and Project moves the columns into the greedy tree's order.
	tuples := encs[0].Count()
	got, want := encs[0].Relation("greedy"), encs[1].Relation("exhaustive")
	if encs[1].Count() != tuples || !got.Equal(want.Project(got.Schema)) {
		return nil, fmt.Errorf("greedy tree represents %d tuples, exhaustive %d, or the sets differ", tuples, encs[1].Count())
	}

	// Timed legs: the searches alone, on the same classes the engine hands
	// them at Prepare time.
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, _, err := opt.OptimalFTree(classes, schemas, opt.TreeSearchOptions{}); err != nil {
			return nil, err
		}
	}
	exhaustiveUS := float64(time.Since(start).Nanoseconds()) / 1e3 / float64(iters)
	start = time.Now()
	for i := 0; i < iters; i++ {
		if _, _, err := opt.GreedyFTree(classes, schemas); err != nil {
			return nil, err
		}
	}
	greedyUS := float64(time.Since(start).Nanoseconds()) / 1e3 / float64(iters)
	return []float64{float64(tuples), greedyUS, exhaustiveUS, gcost, ocost}, nil
}
