package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	fdb "repro"
	"repro/internal/gen"
)

// refreshStatement is one statement shape of Experiment 10. In the plain
// retailer join Orders is anchored at the root class (item), so a delta on
// it merges into the cached encoding value by value; ordered by dispatcher
// the tree roots at Disp.dispatcher and Orders sits two levels down, where
// no merge applies and the refresh leaves the rebuild to Exec — the row
// that keeps that case visible.
type refreshStatement struct {
	name     string
	extra    []fdb.Clause
	anchored bool
}

var refreshStatements = []refreshStatement{
	{"retailer", nil, true},
	{"retailer_by_dispatcher", []fdb.Clause{fdb.OrderBy("Disp.dispatcher")}, false},
}

// writeRefresh is Experiment 10's write leg. A prepared statement holds a
// warm encoded representation; a delta batch of the given fraction of
// Orders is committed through InsertBatch and the statement's next
// execution folds it in (sorted snapshot merge + arena-level enc merge).
// The rebuild leg is what the merge replaces, no more: the same statement
// prepared before the write but never executed, so its refresh merges the
// same snapshots, finds no encoding to patch, and Exec runs the full
// morsel-parallel build. Both legs must agree on the result count.
func writeRefresh(cfg Config, scales []int, fracs []float64) (Table, error) {
	t := Table{Header: []string{
		"Experiment 10: write throughput — batch insert + incremental statement refresh vs full rebuild",
		"workload scale frac base_rows delta_rows result_tuples insert_ms merge_ms rebuild_ms speedup",
	}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	fracs = trim(cfg, fracs)
	for _, scale := range trim(cfg, scales) {
		// Per (statement, fraction): base_rows delta_rows result_tuples insert_ms merge_ms rebuild_ms
		m, err := mean(cfg.Runs, func() ([][]float64, error) { return writeRefreshPoint(rng, scale, fracs) })
		if err != nil {
			return t, err
		}
		for i, r := range m {
			t.add("%s %d %.2f %d %d %d %.3f %.3f %.3f %.1f", refreshStatements[i/len(fracs)].name, scale, fracs[i%len(fracs)],
				int(r[0]), int(r[1]), int64(r[2]), r[3], r[4], r[5], ratio(r[5], r[3]+r[4]))
		}
	}
	return t, nil
}

// writeRefreshPoint measures every statement shape at every fraction, one
// fresh database and one batch per fraction; rows are statement-major.
func writeRefreshPoint(rng *rand.Rand, scale int, fracs []float64) ([][]float64, error) {
	out := make([][]float64, len(refreshStatements)*len(fracs))
	for fi, frac := range fracs {
		db, join, err := openDB(gen.Retailer(rng, scale))
		if err != nil {
			return nil, err
		}
		warm := make([]*fdb.Stmt, len(refreshStatements))
		cold := make([]*fdb.Stmt, len(refreshStatements))
		for si, s := range refreshStatements {
			clauses := with(join, s.extra...)
			if warm[si], err = db.Prepare(clauses...); err != nil {
				return nil, err
			}
			root, _, _ := strings.Cut(warm[si].FTree(), "\n")
			if strings.Contains(root, "Orders.") != s.anchored {
				return nil, fmt.Errorf("bench: exp10 %s: f-tree roots at %q, want Orders anchored there = %v (the row depends on it)",
					s.name, root, s.anchored)
			}
			res, err := warm[si].Exec()
			if err != nil {
				return nil, err
			}
			res.Count() // force the cached pre-projection build
			if cold[si], err = db.Prepare(clauses...); err != nil {
				return nil, err
			}
		}

		base := 500 * scale
		batch := make([][]interface{}, max(int(float64(base)*frac), 1))
		for i := range batch {
			batch[i] = []interface{}{base + i + 1, rng.Intn(gen.RetailerItems) + 1}
		}
		start := time.Now()
		if err := db.InsertBatch("Orders", batch); err != nil {
			return nil, err
		}
		insertMS := ms(start)

		for si, s := range refreshStatements {
			var tuples [2]int64
			var legMS [2]float64
			for leg, st := range []*fdb.Stmt{warm[si], cold[si]} {
				start = time.Now()
				res, err := st.Exec()
				if err != nil {
					return nil, err
				}
				tuples[leg] = res.Count()
				legMS[leg] = ms(start)
			}
			if tuples[0] != tuples[1] {
				return nil, fmt.Errorf("bench: exp10 %s frac %.2f: merged count %d != rebuilt count %d",
					s.name, frac, tuples[0], tuples[1])
			}
			out[si*len(fracs)+fi] = []float64{float64(base), float64(len(batch)), float64(tuples[0]), insertMS, legMS[0], legMS[1]}
		}
	}
	return out, nil
}

// mixedReadWrite is Experiment 10's read-mostly leg: per-operation latency
// percentiles with ~10% batch writes interleaved into cached reads, and the
// plan-cache hit rate across the run — writes never evict, so the rate must
// stay above 90%.
func mixedReadWrite(cfg Config, scales []int, ops int) (Table, error) {
	t := Table{Header: []string{
		"mixed read/write (90/10): ops writes read_p50_ms read_p99_ms write_p50_ms cache_hit_rate",
	}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, scale := range trim(cfg, scales) {
		db, join, err := openDB(gen.Retailer(rng, scale))
		if err != nil {
			return t, err
		}
		if _, err := db.Query(join...); err != nil { // populate the plan cache
			return t, err
		}
		var reads, writes []float64
		next := 500*scale + 1
		for i := 0; i < ops; i++ {
			if i%10 == 9 {
				batch := make([][]interface{}, 5)
				for j := range batch {
					batch[j] = []interface{}{next, rng.Intn(gen.RetailerItems) + 1}
					next++
				}
				start := time.Now()
				if err := db.InsertBatch("Orders", batch); err != nil {
					return t, err
				}
				writes = append(writes, ms(start))
				continue
			}
			start := time.Now()
			res, err := db.Query(join...)
			if err != nil {
				return t, err
			}
			res.Count()
			reads = append(reads, ms(start))
		}
		s := db.CacheStats()
		hitRate := ratio(float64(s.Hits), float64(s.Hits+s.Misses))
		if hitRate <= 0.9 {
			return t, fmt.Errorf("bench: exp10 mixed/%d: read-mostly cache hit rate %.3f <= 0.9", scale, hitRate)
		}
		t.add("retailer %d %d %d %.3f %.3f %.3f %.3f", scale, ops, len(writes),
			percentile(reads, 0.50), percentile(reads, 0.99), percentile(writes, 0.50), hitRate)
	}
	return t, nil
}

// percentile returns the p-quantile (nearest-rank) of the samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[int(p*float64(len(s)-1))]
}
