package fdb_test

// Ablation benchmarks for the design choices called out in DESIGN.md:
// the f-plan cost model (asymptotic s(T) vs catalogue estimates, §4.1),
// the optimiser (exhaustive vs greedy, §4.2/4.3), and the constant-delay
// enumeration claim of Section 2.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fbuild"
	"repro/internal/frep"
	"repro/internal/gen"
	"repro/internal/opt"
	"repro/internal/relation"
	"repro/internal/stats"
)

// BenchmarkAblationCostModel runs the two cost models side by side and
// reports average final-tree costs; per the paper both should pick plans of
// very similar quality.
func BenchmarkAblationCostModel(b *testing.B) {
	for _, model := range []string{"sT", "estimate"} {
		b.Run(model, func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(9))
			var finalS float64
			n := 0
			for i := 0; i < b.N; i++ {
				sch, err := gen.RandomSchema(rng, 4, 10)
				if err != nil {
					b.Fatal(err)
				}
				eqs, err := gen.RandomEqualities(rng, sch, 2)
				if err != nil {
					b.Fatal(err)
				}
				q := &core.Query{Equalities: eqs}
				for j, s := range sch.Relations {
					q.Relations = append(q.Relations, relation.New(sch.Names[j], s))
				}
				rels := sch.Populate(rng, 64, gen.NewSampler(rng, gen.Uniform, 10))
				tr, _, err := opt.OptimalFTree(q.Classes(), q.Schemas(), opt.TreeSearchOptions{})
				if err != nil {
					b.Fatal(err)
				}
				attrs := q.Attributes()
				var conds []opt.Condition
				for tries := 0; tries < 100 && len(conds) < 2; tries++ {
					x, y := attrs[rng.Intn(len(attrs))], attrs[rng.Intn(len(attrs))]
					if tr.NodeOf(x) != tr.NodeOf(y) {
						conds = append(conds, opt.Condition{A: x, B: y})
						break
					}
				}
				if len(conds) == 0 {
					continue
				}
				var res opt.PlanResult
				if model == "sT" {
					res, err = opt.GreedyPlanWithCost(tr, conds, opt.SCost{})
				} else {
					res, err = opt.GreedyPlanWithCost(tr, conds, opt.EstimateCost{Cat: stats.Collect(rels)})
				}
				if err != nil {
					b.Fatal(err)
				}
				finalS += res.FinalS
				n++
			}
			if n > 0 {
				b.ReportMetric(finalS/float64(n), "avg-final-s(T)")
			}
		})
	}
}

// BenchmarkEnumerationDelay checks the constant-delay enumeration claim:
// per-tuple enumeration cost from a factorised result must stay flat as the
// result grows (Section 2: O(|S|) delay between successive tuples). The
// pull iterator walks the arena-backed columns and allocates nothing per
// tuple.
func BenchmarkEnumerationDelay(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		rng := rand.New(rand.NewSource(10))
		q, err := gen.RandomQuery(rng, 3, 9, n, 2, gen.Uniform, 40)
		if err != nil {
			b.Fatal(err)
		}
		tr, _, err := opt.OptimalFTree(q.Classes(), q.Schemas(), opt.TreeSearchOptions{})
		if err != nil {
			b.Fatal(err)
		}
		rels := make([]*relation.Relation, len(q.Relations))
		for i, r := range q.Relations {
			rels[i] = r.Clone()
		}
		enc, err := fbuild.BuildEnc(rels, tr)
		if err != nil {
			b.Fatal(err)
		}
		if enc.Count() == 0 {
			continue
		}
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var tuples int64
			for i := 0; i < b.N; i++ {
				it := frep.NewEncIterator(enc, nil)
				for {
					if _, ok := it.Next(); !ok {
						break
					}
					tuples++
				}
			}
			b.StopTimer()
			if tuples > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tuples), "ns/tuple")
			}
		})
	}
}

// BenchmarkAblationOptimiser compares exhaustive and greedy optimisation
// latency on identical instances (the Figure 9 contrast as a Go benchmark).
func BenchmarkAblationOptimiser(b *testing.B) {
	for _, engine := range []string{"exhaustive", "greedy"} {
		b.Run(engine, func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < b.N; i++ {
				sch, err := gen.RandomSchema(rng, 4, 10)
				if err != nil {
					b.Fatal(err)
				}
				eqs, err := gen.RandomEqualities(rng, sch, 2)
				if err != nil {
					b.Fatal(err)
				}
				q := &core.Query{Equalities: eqs}
				for j, s := range sch.Relations {
					q.Relations = append(q.Relations, relation.New(sch.Names[j], s))
				}
				tr, _, err := opt.OptimalFTree(q.Classes(), q.Schemas(), opt.TreeSearchOptions{})
				if err != nil {
					b.Fatal(err)
				}
				attrs := q.Attributes()
				var conds []opt.Condition
				for tries := 0; tries < 100 && len(conds) < 3; tries++ {
					x, y := attrs[rng.Intn(len(attrs))], attrs[rng.Intn(len(attrs))]
					if tr.NodeOf(x) != tr.NodeOf(y) {
						conds = append(conds, opt.Condition{A: x, B: y})
					}
				}
				if len(conds) == 0 {
					continue
				}
				if engine == "exhaustive" {
					_, err = opt.ExhaustivePlan(tr, conds, opt.PlanSearchOptions{})
				} else {
					_, err = opt.GreedyPlan(tr, conds)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
