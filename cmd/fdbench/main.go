// Command fdbench regenerates the data series of every figure in the
// paper's evaluation (Section 5), plus the engine's own experiments. Usage:
//
//	fdbench -exp 1            # Figure 5:   f-tree optimisation on flat data
//	fdbench -exp 2            # Figures 6+9: full-search vs greedy optimiser
//	fdbench -exp 3            # Figure 7:   evaluation on flat data
//	fdbench -exp 3 -comb      # Figure 7 (right column): combinatorial data
//	fdbench -exp 4            # Figure 8:   evaluation on factorised data
//	fdbench -exp 5            # prepared statements vs ad-hoc queries
//	fdbench -exp 6            # factorised aggregation vs enumerate-then-fold
//	fdbench -exp 8            # morsel-parallel execution: speedup vs worker count
//	fdbench -exp 9            # ordered top-k (ORDER BY + LIMIT) vs flat sort-then-cut
//	fdbench -exp 10           # write throughput: incremental delta merge vs full rebuild
//	fdbench -exp 11           # network front-end: library vs wire vs pipelined wire
//	fdbench -exp 12           # zero-copy snapshot cold open vs TSV parse + rebuild
//	fdbench -exp 13           # greedy f-tree search vs exhaustive search: search latency + plan cost
//	fdbench -exp 14           # native set algebra (UNION/EXCEPT/INTERSECT) vs flat hash baseline
//	fdbench -exp 0            # everything (the EXPERIMENTS.md grids)
//
// Flags -runs, -seed, -timeout shrink or grow the grids.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/gen"
)

func main() {
	exp := flag.Int("exp", 0, "experiment to run (1-6, 8-14; 0 = all)")
	runs := flag.Int("runs", 3, "repetitions per configuration")
	seed := flag.Int64("seed", 42, "random seed")
	comb := flag.Bool("comb", false, "experiment 3: use the combinatorial dataset (Figure 7 right)")
	timeout := flag.Duration("timeout", 20*time.Second, "relational engine budget per query")
	maxN := flag.Int("maxn", 3000, "experiment 3: largest relation size in the sweep")
	flag.Parse()

	switch *exp {
	case 0:
		exp1(*seed, *runs)
		exp2(*seed, *runs)
		exp3(*seed, *timeout, *maxN, false)
		exp3(*seed, *timeout, *maxN, true)
		exp4(*seed, *runs, *timeout)
		exp5(*seed, *runs)
		exp6(*seed, *runs)
		exp8(*seed, *runs)
		exp9(*seed, *runs)
		exp10(*seed, *runs)
		exp11(*seed)
		exp12(*seed, *runs)
		exp13(*seed, *runs)
		exp14(*seed, *runs)
	case 1:
		exp1(*seed, *runs)
	case 2:
		exp2(*seed, *runs)
	case 3:
		exp3(*seed, *timeout, *maxN, *comb)
	case 4:
		exp4(*seed, *runs, *timeout)
	case 5:
		exp5(*seed, *runs)
	case 6:
		exp6(*seed, *runs)
	case 8:
		exp8(*seed, *runs)
	case 9:
		exp9(*seed, *runs)
	case 10:
		exp10(*seed, *runs)
	case 11:
		exp11(*seed)
	case 12:
		exp12(*seed, *runs)
	case 13:
		exp13(*seed, *runs)
	case 14:
		exp14(*seed, *runs)
	default:
		fmt.Fprintln(os.Stderr, "fdbench: -exp must be 0..6 or 8..14")
		os.Exit(2)
	}
}

func exp1(seed int64, runs int) {
	fmt.Println("# Experiment 1 (Figure 5): optimal f-tree for a random query, A=40 attributes")
	fmt.Println("# R K avg_opt_ms avg_s runs budget_failures")
	rng := rand.New(rand.NewSource(seed))
	rows := bench.Experiment1(rng,
		[]int{1, 2, 3, 4, 5, 6, 7, 8},
		[]int{1, 2, 3, 4, 5, 6, 7, 8, 9}, 40, runs)
	for _, r := range rows {
		fmt.Printf("%d %d %.3f %.3f %d %d\n", r.R, r.K, r.AvgMS, r.AvgS, r.Runs, r.Failures)
	}
}

func exp2(seed int64, runs int) {
	fmt.Println("# Experiment 2 (Figures 6 and 9): full search vs greedy, R=4 relations, A=10 attributes")
	fmt.Println("# K L full_plan_cost full_result_cost greedy_plan_cost greedy_result_cost full_ms greedy_ms runs")
	rng := rand.New(rand.NewSource(seed))
	rows := bench.Experiment2(rng, 4, 10,
		[]int{1, 2, 3, 4, 5, 6, 7, 8},
		[]int{1, 2, 3, 4, 5, 6}, runs)
	for _, r := range rows {
		if r.Runs == 0 {
			continue
		}
		fmt.Printf("%d %d %.3f %.3f %.3f %.3f %.3f %.3f %d\n",
			r.K, r.L, r.FullPlanCost, r.FullResultCost, r.GreedyPlanCost,
			r.GreedyResultCost, r.FullMS, r.GreedyMS, r.Runs)
	}
}

func exp3(seed int64, timeout time.Duration, maxN int, comb bool) {
	rng := rand.New(rand.NewSource(seed))
	if comb {
		fmt.Println("# Experiment 3 (Figure 7, right): combinatorial dataset, R=4, A=10, values [1,20]")
		fmt.Println("# K fdb_size flat_size fdb_ms rdb_ms volcano_ms rdb_timeout volcano_timeout")
		for k := 1; k <= 8; k++ {
			q, err := gen.CombinatorialQuery(rng, k, gen.Uniform)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fdbench:", err)
				return
			}
			row, err := bench.Exp3FromQuery(q, bench.Exp3Config{
				K: k, Dist: gen.Uniform, Timeout: timeout, MaxTuples: 50_000_000,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "fdbench:", err)
				return
			}
			fmt.Printf("%d %d %d %.3f %.3f %.3f %v %v\n",
				k, row.FDBSize, row.FlatSize, row.FDBMS, row.RDBMS, row.VolcanoMS,
				row.RDBTimedOut, row.VolcTimedOut)
		}
		return
	}
	fmt.Println("# Experiment 3 (Figure 7): 3 ternary relations, values [1,100]")
	fmt.Println("# dist N K fdb_size flat_size fdb_ms rdb_ms volcano_ms rdb_timeout volcano_timeout")
	for _, dist := range []gen.Distribution{gen.Uniform, gen.Zipf} {
		for n := 300; n <= maxN; n *= 3 {
			for k := 2; k <= 4; k++ {
				row, err := bench.Experiment3Point(rng, bench.Exp3Config{
					Relations: 3, Attributes: 9, N: n, K: k, M: 100,
					Dist: dist, Timeout: timeout, MaxTuples: 50_000_000,
				})
				if err != nil {
					fmt.Fprintln(os.Stderr, "fdbench:", err)
					return
				}
				fmt.Printf("%s %d %d %d %d %.3f %.3f %.3f %v %v\n",
					dist, n, k, row.FDBSize, row.FlatSize, row.FDBMS, row.RDBMS,
					row.VolcanoMS, row.RDBTimedOut, row.VolcTimedOut)
			}
		}
	}
}

func exp5(seed int64, runs int) {
	fmt.Println("# Experiment 5: prepared statements (Prepare once, Exec per constant) vs cold ad-hoc Query")
	fmt.Println("# execs adhoc_ms_per_exec prepared_ms_per_exec speedup cache_hits cache_misses")
	rng := rand.New(rand.NewSource(seed))
	cfg := bench.DefaultExp5Config()
	for i := 0; i < runs; i++ {
		row, err := bench.PreparedVsAdhoc(rng, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fdbench:", err)
			return
		}
		fmt.Printf("%d %.3f %.3f %.2f %d %d\n",
			row.Execs, row.AdhocNS/1e6, row.PreparedNS/1e6, row.Speedup,
			row.CacheHits, row.CacheMisses)
	}
}

func exp6(seed int64, runs int) {
	fmt.Println("# Experiment 6: grouped aggregation on the factorised result — single pass vs enumerate-then-fold")
	fmt.Println("# workload scale frep_size flat_tuples groups fact_ms fold_ms speedup fold_skipped")
	rng := rand.New(rand.NewSource(seed))
	run := func(workload string, scale int, point func(*rand.Rand, bench.Exp6Config) (bench.Exp6Row, error)) {
		var acc bench.Exp6Row
		n := 0
		for i := 0; i < runs; i++ {
			row, err := point(rng, bench.Exp6Config{Scale: scale, MaxFold: 5_000_000})
			if err != nil {
				fmt.Fprintln(os.Stderr, "fdbench:", err)
				return
			}
			acc.RepSize += row.RepSize
			acc.Tuples += row.Tuples
			acc.Groups += row.Groups
			acc.FactMS += row.FactMS
			acc.FoldMS += row.FoldMS
			if row.FoldSkipped {
				acc.FoldSkipped = true
			}
			n++
		}
		if n == 0 {
			return
		}
		f := float64(n)
		speedup := 0.0
		if acc.FactMS > 0 && !acc.FoldSkipped {
			speedup = acc.FoldMS / acc.FactMS
		}
		fmt.Printf("%s %d %d %d %d %.3f %.3f %.1f %v\n",
			workload, scale, acc.RepSize/int64(n), acc.Tuples/int64(n), acc.Groups/n,
			acc.FactMS/f, acc.FoldMS/f, speedup, acc.FoldSkipped)
	}
	for _, scale := range []int{1, 2, 4, 8} {
		run("retailer", scale, bench.Experiment6Retailer)
	}
	for _, length := range []int{2, 4, 6, 8} {
		run("chain", length, bench.Experiment6Chain)
	}
}

func exp8(seed int64, runs int) {
	fmt.Println("# Experiment 8: morsel-parallel execution — speedup vs worker count (same inputs, same lifted f-tree)")
	fmt.Printf("# gomaxprocs=%d; speedups are relative to the 1-worker leg of each configuration\n", runtime.GOMAXPROCS(0))
	fmt.Println("# workload scale workers frep_size flat_tuples build_ms build_x agg_ms agg_x enum_ms enum_x")
	rng := rand.New(rand.NewSource(seed))
	workers := []int{1, 2, 4, 8}
	run := func(workload string, scale int, sweep func(*rand.Rand, bench.Exp8Config) ([]bench.Exp8Row, error)) {
		acc := map[int]*bench.Exp8Row{}
		n := 0
		for i := 0; i < runs; i++ {
			rows, err := sweep(rng, bench.Exp8Config{Scale: scale, Workers: workers, MaxEnum: 20_000_000})
			if err != nil {
				// The experiment doubles as the parallel-vs-serial parity
				// check CI runs; its failure must fail the process.
				fmt.Fprintln(os.Stderr, "fdbench:", err)
				os.Exit(1)
			}
			for i := range rows {
				r := rows[i]
				a, ok := acc[r.Workers]
				if !ok {
					acc[r.Workers] = &r
					continue
				}
				a.RepSize += r.RepSize
				a.Tuples += r.Tuples
				a.BuildMS += r.BuildMS
				a.AggMS += r.AggMS
				a.EnumMS += r.EnumMS
			}
			n++
		}
		if n == 0 {
			return
		}
		f := float64(n)
		base := acc[workers[0]]
		x := func(b, cur float64) float64 {
			if cur <= 0 {
				return 0
			}
			return b / cur
		}
		for _, w := range workers {
			r := acc[w]
			fmt.Printf("%s %d %d %d %d %.3f %.2f %.3f %.2f %.3f %.2f\n",
				workload, scale, w, r.RepSize/int64(n), r.Tuples/int64(n),
				r.BuildMS/f, x(base.BuildMS, r.BuildMS),
				r.AggMS/f, x(base.AggMS, r.AggMS),
				r.EnumMS/f, x(base.EnumMS, r.EnumMS))
		}
	}
	for _, scale := range []int{2, 4, 8} {
		run("retailer", scale, bench.Experiment8Retailer)
	}
	for _, length := range []int{4, 6, 8} {
		run("chain", length, bench.Experiment8Chain)
	}
}

func exp9(seed int64, runs int) {
	fmt.Println("# Experiment 9: ordered top-k (ORDER BY + LIMIT k) vs flat enumerate-sort-cut on the same built result")
	fmt.Println("# retailer streams off the order-compatible f-tree (O(k) entries); chain falls back to the bounded size-k heap")
	fmt.Println("# workload scale k flat_tuples frep_size build_ms topk_ms flat_ms speedup mode")
	rng := rand.New(rand.NewSource(seed))
	run := func(sweep func(*rand.Rand, bench.Exp9Config) (bench.Exp9Row, error), scale, k int) {
		var acc bench.Exp9Row
		n := 0
		for i := 0; i < runs; i++ {
			row, err := sweep(rng, bench.Exp9Config{Scale: scale, K: k})
			if err != nil {
				// The experiment doubles as the top-k-vs-baseline parity check
				// CI runs; its failure must fail the process.
				fmt.Fprintln(os.Stderr, "fdbench:", err)
				os.Exit(1)
			}
			acc.Workload, acc.Streamed = row.Workload, row.Streamed
			acc.Tuples += row.Tuples
			acc.RepSize += row.RepSize
			acc.BuildMS += row.BuildMS
			acc.TopkMS += row.TopkMS
			acc.FlatMS += row.FlatMS
			n++
		}
		f := float64(n)
		speedup := 0.0
		if acc.TopkMS > 0 {
			speedup = acc.FlatMS / acc.TopkMS
		}
		mode := "heap"
		if acc.Streamed {
			mode = "stream"
		}
		fmt.Printf("%s %d %d %d %d %.3f %.3f %.3f %.1f %s\n",
			acc.Workload, scale, k, acc.Tuples/int64(n), acc.RepSize/int64(n),
			acc.BuildMS/f, acc.TopkMS/f, acc.FlatMS/f, speedup, mode)
	}
	for _, scale := range []int{2, 4, 8} {
		run(bench.Experiment9Retailer, scale, 10)
	}
	for _, length := range []int{4, 5, 6} {
		run(bench.Experiment9Chain, length, 10)
	}
}

func exp10(seed int64, runs int) {
	fmt.Println("# Experiment 10: write throughput — batch insert + incremental statement refresh vs full rebuild")
	fmt.Println("# workload scale frac base_rows delta_rows result_tuples insert_ms merge_ms rebuild_ms speedup")
	rng := rand.New(rand.NewSource(seed))
	for _, scale := range []int{2, 4, 8} {
		acc := map[float64]*bench.Exp10Row{}
		var fracs []float64
		n := 0
		for i := 0; i < runs; i++ {
			rows, err := bench.Experiment10Writes(rng, bench.Exp10Config{Scale: scale})
			if err != nil {
				// The experiment doubles as the merged-vs-rebuilt parity check
				// CI runs; its failure must fail the process.
				fmt.Fprintln(os.Stderr, "fdbench:", err)
				os.Exit(1)
			}
			for i := range rows {
				r := rows[i]
				a, ok := acc[r.Frac]
				if !ok {
					acc[r.Frac] = &r
					fracs = append(fracs, r.Frac)
					continue
				}
				a.Tuples += r.Tuples
				a.InsertMS += r.InsertMS
				a.MergeMS += r.MergeMS
				a.RebuildMS += r.RebuildMS
			}
			n++
		}
		f := float64(n)
		for _, frac := range fracs {
			r := acc[frac]
			speedup := 0.0
			if inc := r.InsertMS + r.MergeMS; inc > 0 {
				speedup = r.RebuildMS / inc
			}
			fmt.Printf("%s %d %.2f %d %d %d %.3f %.3f %.3f %.1f\n",
				r.Workload, scale, frac, r.BaseRows, r.DeltaRows, r.Tuples/int64(n),
				r.InsertMS/f, r.MergeMS/f, r.RebuildMS/f, speedup)
		}
	}
	fmt.Println("# mixed read/write (90/10): ops writes read_p50_ms read_p99_ms write_p50_ms cache_hit_rate")
	for _, scale := range []int{2, 4} {
		row, err := bench.Experiment10Mixed(rng, bench.Exp10Config{Scale: scale, Ops: 300})
		if err != nil {
			fmt.Fprintln(os.Stderr, "fdbench:", err)
			os.Exit(1)
		}
		fmt.Printf("retailer %d %d %d %.3f %.3f %.3f %.3f\n",
			scale, row.Ops, row.Writes, row.ReadP50MS, row.ReadP99MS, row.WriteP50MS, row.CacheHitRate)
	}
}

func exp11(seed int64) {
	fmt.Println("# Experiment 11: network front-end overhead — library vs wire vs pipelined wire")
	fmt.Println("# mode ops ns_per_op p99_ns")
	rows, err := bench.Experiment11Wire(seed, bench.Exp11Config{Scale: 2, Ops: 400})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fdbench:", err)
		os.Exit(1)
	}
	for _, r := range rows {
		fmt.Printf("%s %d %.0f %.0f\n", r.Mode, r.Ops, r.NsPerOp, r.P99Ns)
	}
}

func exp12(seed int64, runs int) {
	fmt.Println("# Experiment 12: zero-copy snapshot cold open (mmap + enc adoption) vs TSV parse + full rebuild")
	fmt.Println("# workload scale result_tuples file_kb save_ms cold_open_ms rebuild_ms speedup")
	rng := rand.New(rand.NewSource(seed))
	acc := map[int]*bench.Exp12Row{}
	var scales []int
	n := 0
	for i := 0; i < runs; i++ {
		rows, err := bench.Experiment12Persist(rng, bench.Exp12Config{Scales: []int{1, 2, 4, 8}})
		if err != nil {
			// The experiment doubles as the cold-open-vs-live parity check CI
			// runs; its failure must fail the process.
			fmt.Fprintln(os.Stderr, "fdbench:", err)
			os.Exit(1)
		}
		for i := range rows {
			r := rows[i]
			a, ok := acc[r.Scale]
			if !ok {
				acc[r.Scale] = &r
				scales = append(scales, r.Scale)
				continue
			}
			a.Tuples += r.Tuples
			a.FileKB += r.FileKB
			a.SaveMS += r.SaveMS
			a.ColdMS += r.ColdMS
			a.RebuildMS += r.RebuildMS
		}
		n++
	}
	f := float64(n)
	for _, scale := range scales {
		r := acc[scale]
		speedup := 0.0
		if r.ColdMS > 0 {
			speedup = r.RebuildMS / r.ColdMS
		}
		fmt.Printf("retailer %d %d %.1f %.3f %.3f %.3f %.1f\n",
			scale, r.Tuples/int64(n), r.FileKB/f, r.SaveMS/f, r.ColdMS/f, r.RebuildMS/f, speedup)
	}
}

func exp13(seed int64, runs int) {
	fmt.Println("# Experiment 13: greedy statistics-free f-tree search vs exhaustive branch-and-bound — cold search latency and plan cost")
	fmt.Println("# workload scale result_tuples greedy_us exhaustive_us speedup greedy_cost optimal_cost cost_ratio")
	rng := rand.New(rand.NewSource(seed))
	run := func(sweep func(*rand.Rand, bench.Exp13Config) (bench.Exp13Row, error), scale int) {
		var acc bench.Exp13Row
		n := 0
		for i := 0; i < runs; i++ {
			row, err := sweep(rng, bench.Exp13Config{Scale: scale})
			if err != nil {
				// The experiment doubles as the greedy-vs-exhaustive parity and
				// plan-quality check CI runs; its failure must fail the process.
				fmt.Fprintln(os.Stderr, "fdbench:", err)
				os.Exit(1)
			}
			acc.Workload = row.Workload
			acc.Tuples += row.Tuples
			acc.GreedyUS += row.GreedyUS
			acc.ExhaustiveUS += row.ExhaustiveUS
			acc.GreedyCost += row.GreedyCost
			acc.OptimalCost += row.OptimalCost
			n++
		}
		f := float64(n)
		speedup, ratio := 0.0, 0.0
		if acc.GreedyUS > 0 {
			speedup = acc.ExhaustiveUS / acc.GreedyUS
		}
		if acc.OptimalCost > 0 {
			ratio = acc.GreedyCost / acc.OptimalCost
		}
		fmt.Printf("%s %d %d %.1f %.1f %.1f %.3f %.3f %.3f\n",
			acc.Workload, scale, acc.Tuples/int64(n), acc.GreedyUS/f, acc.ExhaustiveUS/f,
			speedup, acc.GreedyCost/f, acc.OptimalCost/f, ratio)
	}
	for _, scale := range []int{1, 4} {
		run(bench.Experiment13Retailer, scale)
	}
	for _, length := range []int{4, 6, 8} {
		run(bench.Experiment13Chain, length)
	}
}

func exp14(seed int64, runs int) {
	fmt.Println("# Experiment 14: native set algebra over the encoding (structural merge) vs flat hash baseline, retailer legs")
	fmt.Println("# op scale leg_a_tuples leg_b_tuples result_tuples frep_size build_ms fact_ms flat_ms speedup")
	rng := rand.New(rand.NewSource(seed))
	for _, scale := range []int{1, 4} {
		acc := map[string]*bench.Exp14Row{}
		var order []string
		n := 0
		for i := 0; i < runs; i++ {
			rows, err := bench.Experiment14Retailer(rng, bench.Exp14Config{Scale: scale})
			if err != nil {
				// The experiment doubles as the factorised-vs-flat set-algebra
				// parity check CI runs; its failure must fail the process.
				fmt.Fprintln(os.Stderr, "fdbench:", err)
				os.Exit(1)
			}
			for i := range rows {
				r := rows[i]
				a, ok := acc[r.Op]
				if !ok {
					acc[r.Op] = &r
					order = append(order, r.Op)
					continue
				}
				a.TuplesA += r.TuplesA
				a.TuplesB += r.TuplesB
				a.Tuples += r.Tuples
				a.RepSize += r.RepSize
				a.BuildMS += r.BuildMS
				a.FactMS += r.FactMS
				a.FlatMS += r.FlatMS
			}
			n++
		}
		f := float64(n)
		for _, op := range order {
			r := acc[op]
			speedup := 0.0
			if r.FactMS > 0 {
				speedup = r.FlatMS / r.FactMS
			}
			fmt.Printf("%s %d %d %d %d %d %.3f %.3f %.3f %.1f\n",
				op, scale, r.TuplesA/int64(n), r.TuplesB/int64(n), r.Tuples/int64(n),
				r.RepSize/int64(n), r.BuildMS/f, r.FactMS/f, r.FlatMS/f, speedup)
		}
	}
}

func exp4(seed int64, runs int, timeout time.Duration) {
	fmt.Println("# Experiment 4 (Figure 8): L equalities on the factorised result of K equalities, R=4, A=10")
	fmt.Println("# K L fdb_size flat_size fdb_ms rdb_ms plan_cost rdb_skipped")
	rng := rand.New(rand.NewSource(seed))
	for k := 1; k <= 6; k++ {
		for l := 1; l <= 3; l++ {
			if k+l >= 10 {
				continue
			}
			var acc bench.Exp4Row
			n := 0
			for i := 0; i < runs; i++ {
				row, err := bench.Experiment4Point(rng, bench.Exp4Config{
					Relations: 4, Attributes: 10, N: 256, K: k, L: l, M: 20,
					Dist: gen.Uniform, Timeout: timeout, MaxFlat: 3_000_000,
				})
				if err != nil {
					continue
				}
				acc.FDBSize += row.FDBSize
				acc.FlatSize += row.FlatSize
				acc.FDBMS += row.FDBMS
				acc.RDBMS += row.RDBMS
				acc.PlanCost += row.PlanCost
				if row.RDBSkipped {
					acc.RDBSkipped = true
				}
				n++
			}
			if n == 0 {
				continue
			}
			f := float64(n)
			fmt.Printf("%d %d %d %d %.3f %.3f %.3f %v\n",
				k, l, acc.FDBSize/int64(n), acc.FlatSize/int64(n),
				acc.FDBMS/f, acc.RDBMS/f, acc.PlanCost/f, acc.RDBSkipped)
		}
	}
}
