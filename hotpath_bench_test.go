package fdb_test

// Micro-benchmarks of the hot paths — build, exec, cold prepare, aggregate,
// enumeration — for profiling while working on one of them. They gate
// nothing: CI runs them once so they cannot rot, and the repo benchmark
// (benchmark/) is what a change is judged by.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	fdb "repro"
	"repro/internal/bench"
	"repro/internal/fbuild"
	"repro/internal/frep"
	"repro/internal/ftree"
	"repro/internal/gen"
	"repro/internal/opt"
	"repro/internal/relation"
)

var benchSink int64

func retailerAggSetup(b *testing.B) (*frep.Enc, []relation.Attribute, []frep.AggSpec) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	q := bench.RetailerQuery(rng, 2)
	groupBy := []relation.Attribute{"Stock.location"}
	fr, err := bench.BuildRep(q, groupBy)
	if err != nil {
		b.Fatal(err)
	}
	specs := []frep.AggSpec{
		{Fn: frep.AggCount},
		{Fn: frep.AggSum, Attr: "Orders.oid"},
		{Fn: frep.AggCountDistinct, Attr: "Orders.item"},
	}
	return fr, groupBy, specs
}

// BenchmarkBuildRetailer tracks the factorisation build: f-tree search,
// group lift and arena-backed columnar construction on the retailer
// workload.
func BenchmarkBuildRetailer(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	q := bench.RetailerQuery(rng, 2)
	groupBy := []relation.Attribute{"Stock.location"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr, err := bench.BuildRep(q, groupBy)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = int64(fr.NodeCount())
	}
}

// BenchmarkExecPrepared tracks Stmt.Exec: per-execution parameter binding,
// filtering and build on pre-sorted snapshots.
func BenchmarkExecPrepared(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	db := fdb.New()
	db.MustCreate("Orders", "oid", "item")
	for i := 0; i < 1000; i++ {
		db.MustInsert("Orders", i, rng.Intn(50))
	}
	db.MustCreate("Stock", "location", "item")
	for i := 0; i < 400; i++ {
		db.MustInsert("Stock", rng.Intn(40), rng.Intn(50))
	}
	db.MustCreate("Disp", "dispatcher", "location")
	for i := 0; i < 200; i++ {
		db.MustInsert("Disp", i%120, rng.Intn(40))
	}
	// Exec builds with GOMAXPROCS workers: -cpu 1 profiles the serial
	// per-exec path.
	st, err := db.Prepare(
		fdb.From("Orders", "Stock", "Disp"),
		fdb.Eq("Orders.item", "Stock.item"),
		fdb.Eq("Stock.location", "Disp.location"),
		fdb.Cmp("Stock.location", fdb.LT, fdb.Param("n")))
	if err != nil {
		b.Fatal(err)
	}
	// Warm-up exec outside the timed loop: the first Exec pays one-off lazy
	// work (dictionary decode tables, snapshot touch-in), which used to make
	// the recorded ns/op bimodal across hosts.
	if _, err := st.Exec(fdb.Arg("n", 20)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := st.Exec(fdb.Arg("n", 20))
		if err != nil {
			b.Fatal(err)
		}
		benchSink = res.Count()
	}
}

// BenchmarkPrepareCold tracks cold statement compilation — greedy incumbent
// plus the budgeted, incumbent-bounded search — on a six-relation chain
// join: wide enough that the search has real work, small enough data that
// Prepare time is planning time: the ad-hoc query hot path.
func BenchmarkPrepareCold(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	db := fdb.New()
	var from []string
	for i := 1; i <= 6; i++ {
		name := fmt.Sprintf("R%d", i)
		db.MustCreate(name, "A", "B")
		for j := 0; j < 30; j++ {
			db.MustInsert(name, rng.Intn(10)+1, rng.Intn(10)+1)
		}
		from = append(from, name)
	}
	clauses := []fdb.Clause{fdb.From(from...)}
	for i := 1; i < 6; i++ {
		clauses = append(clauses, fdb.Eq(fmt.Sprintf("R%d.B", i), fmt.Sprintf("R%d.A", i+1)))
	}
	// Warm-up compile outside the timed loop: the first Prepare also pays
	// one-off data-dependent work (snapshot sorting) that would otherwise
	// make allocs/op depend on -benchtime. Every timed Prepare adds a limit
	// no earlier one had, so it misses the plan cache and the planner search
	// runs cold; the limit plays no part in the search.
	if _, err := db.Prepare(clauses...); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Prepare(append(clauses[:len(clauses):len(clauses)], fdb.Limit(i+1))...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggregateFactorised tracks the single-pass aggregation over the
// encoded factorised representation (the Experiment 6 fast path).
func BenchmarkAggregateFactorised(b *testing.B) {
	fr, groupBy, specs := retailerAggSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := fr.Aggregate(groupBy, specs)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = int64(len(rows))
	}
}

// BenchmarkAggregateEnumFold tracks the enumerate-then-fold baseline over
// the same representation, for the Experiment 6 comparison.
func BenchmarkAggregateEnumFold(b *testing.B) {
	fr, groupBy, specs := retailerAggSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := bench.FoldAggregate(fr, groupBy, specs)
		benchSink = int64(len(rows))
	}
}

// parallelBuildSetup prepares the retailer inputs the way Stmt.Exec sees
// them: lifted tree, relations pre-sorted in path order.
func parallelBuildSetup(b *testing.B) ([]*relation.Relation, *ftree.T) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	q := bench.RetailerQuery(rng, 2)
	fr, err := bench.BuildRep(q, []relation.Attribute{"Stock.location"})
	if err != nil {
		b.Fatal(err)
	}
	tr := fr.Tree
	if err := fbuild.SortFor(q.Relations, tr); err != nil {
		b.Fatal(err)
	}
	return q.Relations, tr
}

// BenchmarkBuildParallelRetailer tracks the morsel-parallel encoded build
// at GOMAXPROCS workers over pre-sorted inputs; on a single-core runner it
// builds the pivot root as one morsel, the path every serial build takes.
func BenchmarkBuildParallelRetailer(b *testing.B) {
	rels, tr := parallelBuildSetup(b)
	workers := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr, err := fbuild.BuildEncParallel(rels, tr.Clone(), workers)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = int64(fr.NodeCount())
	}
}

// BenchmarkAggregateParallelRetailer tracks the chunked parallel grouped
// aggregation at GOMAXPROCS workers.
func BenchmarkAggregateParallelRetailer(b *testing.B) {
	fr, groupBy, specs := retailerAggSetup(b)
	workers := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := fr.AggregateParallel(groupBy, specs, workers)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = int64(len(rows))
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
