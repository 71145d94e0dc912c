package bench

import (
	"fmt"
	"math/rand"
	"time"

	fdb "repro"
	"repro/internal/core"
	"repro/internal/fbuild"
	"repro/internal/frep"
	"repro/internal/ftree"
	"repro/internal/opt"
	"repro/internal/relation"
)

// Exp13Row is one point of Experiment 13: cold planning latency of the
// greedy statistics-free f-tree search against the exhaustive
// branch-and-bound search, on identical workloads. The timed legs call the
// two searches directly on the workload's attribute classes (the way
// Experiments 1 and 2 time the optimiser), so data-dependent Prepare work —
// snapshotting, sorting — doesn't mask the search. Before any timing is
// reported, both trees are built over the workload's data and their flat
// results compared (modulo tuple and column order — the trees differ); the
// greedy tree's cost s(T) is reported next to the exhaustive optimum and
// must stay within exp13MaxCostRatio of it.
type Exp13Row struct {
	Workload     string
	Scale        int
	Tuples       int64   // flat tuples of the join result
	GreedyUS     float64 // mean cold planning latency, greedy search (µs)
	ExhaustiveUS float64 // mean cold planning latency, exhaustive search (µs)
	Speedup      float64 // ExhaustiveUS / GreedyUS
	GreedyCost   float64 // s(T) of the greedy tree
	OptimalCost  float64 // s(T) of the exhaustive tree
	CostRatio    float64 // GreedyCost / OptimalCost
}

// Exp13Config parameterises one Experiment 13 measurement.
type Exp13Config struct {
	Scale int
	Iters int // cold search repetitions per leg (default 30)
}

// exp13MaxCostRatio is the plan-quality bar the experiment enforces on its
// workloads: the greedy tree may cost at most 15% more than the optimum.
const exp13MaxCostRatio = 1.15

// Experiment13Retailer: the three-relation retailer join — the OLTP-shaped
// case where greedy planning should land on the optimal tree outright.
func Experiment13Retailer(rng *rand.Rand, cfg Exp13Config) (Exp13Row, error) {
	scale := cfg.Scale
	if scale <= 0 {
		scale = 1
	}
	db, _ := exp9Retailer(rng, scale)
	q := &core.Query{
		Relations: []*relation.Relation{
			relation.New("Orders", relation.Schema{"Orders.oid", "Orders.item"}),
			relation.New("Stock", relation.Schema{"Stock.location", "Stock.item"}),
			relation.New("Disp", relation.Schema{"Disp.dispatcher", "Disp.location"}),
		},
		Equalities: []core.Equality{
			{A: "Orders.item", B: "Stock.item"},
			{A: "Stock.location", B: "Disp.location"},
		},
	}
	return experiment13("retailer", cfg, db, q)
}

// Experiment13Chain: the length-n chain join of Example 6 — the regime
// where the exhaustive search's exponential blowup shows while the greedy
// search stays polynomial.
func Experiment13Chain(rng *rand.Rand, cfg Exp13Config) (Exp13Row, error) {
	db := exp13Chain(rng, cfg.Scale)
	q := &core.Query{}
	for i := 1; i <= cfg.Scale; i++ {
		name := fmt.Sprintf("R%d", i)
		q.Relations = append(q.Relations, relation.New(name,
			relation.Schema{relation.Attribute(name + ".A"), relation.Attribute(name + ".B")}))
	}
	for i := 1; i < cfg.Scale; i++ {
		q.Equalities = append(q.Equalities, core.Equality{
			A: relation.Attribute(fmt.Sprintf("R%d.B", i)),
			B: relation.Attribute(fmt.Sprintf("R%d.A", i+1)),
		})
	}
	return experiment13("chain", cfg, db, q)
}

// exp13Chain is exp9Chain's data at planner scale: 30 tuples per relation,
// so the parity builds stay cheap.
func exp13Chain(rng *rand.Rand, length int) *fdb.DB {
	db := fdb.New()
	for i := 1; i <= length; i++ {
		name := fmt.Sprintf("R%d", i)
		db.MustCreate(name, "A", "B")
		for j := 0; j < 30; j++ {
			db.MustInsert(name, rng.Intn(10)+1, rng.Intn(10)+1)
		}
	}
	return db
}

// experiment13 runs one measurement: search both trees for the query,
// enforce the cost-ratio bar, parity-check the two trees' builds over the
// database's relations, then time the two searches on the query's
// attribute classes.
func experiment13(workload string, cfg Exp13Config, db *fdb.DB, q *core.Query) (Exp13Row, error) {
	iters := cfg.Iters
	if iters <= 0 {
		iters = 30
	}
	row := Exp13Row{Workload: workload, Scale: cfg.Scale}

	classes, schemas := q.Classes(), q.Schemas()
	gtree, gcost, err := opt.GreedyFTree(classes, schemas)
	if err != nil {
		return row, err
	}
	otree, ocost, err := opt.OptimalFTree(classes, schemas, opt.TreeSearchOptions{})
	if err != nil {
		return row, err
	}
	row.GreedyCost, row.OptimalCost = gcost, ocost
	if row.OptimalCost > 0 {
		row.CostRatio = row.GreedyCost / row.OptimalCost
	}
	if row.CostRatio > exp13MaxCostRatio {
		return row, fmt.Errorf("bench: exp13 %s/%d: greedy plan cost %.3f exceeds %.0f%% of optimal %.3f",
			workload, cfg.Scale, row.GreedyCost, 100*exp13MaxCostRatio, row.OptimalCost)
	}

	// Parity precheck: both trees must represent the same flat result.
	var encs [2]*frep.Enc
	for i, tree := range []*ftree.T{gtree, otree} {
		rels := make([]*relation.Relation, len(q.Relations))
		for j, shell := range q.Relations {
			r, ok := db.Relation(shell.Name)
			if !ok {
				return row, fmt.Errorf("bench: exp13 %s/%d: relation %s missing", workload, cfg.Scale, shell.Name)
			}
			rels[j] = r.Clone() // SortFor sorts in place; db.Relation is read-only
			rels[j].Dedup()
		}
		if err := fbuild.SortFor(rels, tree); err != nil {
			return row, err
		}
		if encs[i], err = fbuild.BuildEnc(rels, tree); err != nil {
			return row, err
		}
	}
	// Equal compares as sets, modulo tuple order; the counts rule out
	// duplicates and Project moves the columns into the greedy tree's order.
	row.Tuples = encs[0].Count()
	got, want := encs[0].Relation("greedy"), encs[1].Relation("exhaustive")
	if encs[1].Count() != row.Tuples || !got.Equal(want.Project(got.Schema)) {
		return row, fmt.Errorf("bench: exp13 %s/%d: greedy tree represents %d tuples, exhaustive %d, or the sets differ",
			workload, cfg.Scale, row.Tuples, encs[1].Count())
	}

	// Timed legs: the searches alone, on the same classes the engine hands
	// them at Prepare time.
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, _, err := opt.OptimalFTree(classes, schemas, opt.TreeSearchOptions{}); err != nil {
			return row, err
		}
	}
	row.ExhaustiveUS = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(iters)
	start = time.Now()
	for i := 0; i < iters; i++ {
		if _, _, err := opt.GreedyFTree(classes, schemas); err != nil {
			return row, err
		}
	}
	row.GreedyUS = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(iters)
	if row.GreedyUS > 0 {
		row.Speedup = row.ExhaustiveUS / row.GreedyUS
	}
	return row, nil
}
