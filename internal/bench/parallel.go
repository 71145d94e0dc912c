package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/fbuild"
	"repro/internal/frep"
)

// parallelSweep is Experiment 8: the morsel-parallel execution paths (build
// and grouped aggregation) at each worker count, on the workloads of
// Experiment 6. Speedups are relative to the first worker count, computed
// from times averaged across runs (single-run ratios would only add noise).
// Every leg is cross-checked against the first, so a pass is the
// parallel-vs-serial parity proof.
func parallelSweep(cfg Config, retailer, chain, workers []int) (Table, error) {
	t := Table{Header: []string{
		"Experiment 8: morsel-parallel execution — speedup vs worker count (same inputs, same lifted f-tree)",
		fmt.Sprintf("gomaxprocs=%d; speedups are relative to the %d-worker leg of each configuration", runtime.GOMAXPROCS(0), workers[0]),
		"workload scale workers frep_size flat_tuples build_ms build_x agg_ms agg_x",
	}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, w := range aggWorkloads(cfg, retailer, chain) {
		// Per worker count: frep_size flat_tuples build_ms agg_ms
		m, err := mean(cfg.Runs, func() ([][]float64, error) {
			return parallelPoint(w, w.query(rng), workers)
		})
		if err != nil {
			return t, err
		}
		base := m[0]
		for i, r := range m {
			t.add("%s %d %d %d %d %.3f %.2f %.3f %.2f", w.name, w.scale, workers[i],
				int64(r[0]), int64(r[1]), r[2], ratio(base[2], r[2]), r[3], ratio(base[3], r[3]))
		}
	}
	return t, nil
}

// parallelPoint runs one sweep: a shared lifted f-tree and pre-sorted inputs
// (the prepared-statement situation), then per worker count one parallel
// build and one parallel grouped aggregation.
func parallelPoint(w aggWorkload, q *core.Query, workers []int) ([][]float64, error) {
	tr, err := liftedTree(q, w.groupBy)
	if err != nil {
		return nil, err
	}
	rels := cloneRels(q.Relations)
	// Sort once up front, as Prepare does: the sweep then measures the
	// parallel build itself, not the one-off sort.
	if err := fbuild.SortFor(rels, tr); err != nil {
		return nil, err
	}
	fail := func(format string, args ...interface{}) ([][]float64, error) {
		return nil, fmt.Errorf("bench: exp8 %s/%d: %s", w.name, w.scale, fmt.Sprintf(format, args...))
	}

	var out [][]float64
	var first *frep.Enc
	var firstRows []frep.AggRow
	for _, p := range workers {
		start := time.Now()
		enc, err := fbuild.BuildEncParallel(rels, tr.Clone(), p)
		if err != nil {
			return nil, err
		}
		buildMS := ms(start)
		row := []float64{float64(enc.Size()), float64(enc.Count()), buildMS, 0}

		start = time.Now()
		rows, err := enc.AggregateParallel(w.groupBy, w.specs, p)
		if err != nil {
			return nil, err
		}
		row[3] = ms(start)

		if first == nil {
			first, firstRows = enc, rows
		} else {
			// Every leg must agree with the first bit for bit.
			if !enc.Equal(first) {
				return fail("%d-worker build differs from %d-worker build", p, workers[0])
			}
			if len(rows) != len(firstRows) {
				return fail("%d-worker aggregation has %d groups, want %d", p, len(rows), len(firstRows))
			}
			for i := range rows {
				if !slices.Equal(rows[i].Vals, firstRows[i].Vals) {
					return fail("%d-worker aggregation differs in group %v", p, rows[i].Key)
				}
			}
		}
		out = append(out, row)
	}
	return out, nil
}
