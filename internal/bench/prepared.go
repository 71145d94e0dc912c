package bench

import (
	"fmt"
	"math/rand"
	"time"

	fdb "repro"
	"repro/internal/gen"
)

// preparedVsAdhoc is Experiment 5, the prepared-statement amortisation: the
// retailer join restricted to one item value per execution, run execs times
// with distinct constants — once as cold db.Query calls (every call
// re-compiles: clause validation, input clone+dedup, f-tree search, input
// sorting) and once as stmt.Exec on a statement prepared once. Both legs
// answer the same queries, so the only difference is where the compile cost
// is paid, and their tuple totals must agree. The plan cache is disabled
// for the ad-hoc leg so every call compiles cold even when the constants
// wrap around the item domain. A third leg (cache re-enabled) repeats one
// identical db.Query, which must be served from the plan cache. One row
// per run.
func preparedVsAdhoc(cfg Config, scale, execs int) (Table, error) {
	t := Table{Header: []string{
		"Experiment 5: prepared statements (Prepare once, Exec per constant) vs cold ad-hoc Query",
		"execs adhoc_ms_per_exec prepared_ms_per_exec speedup cache_hits cache_misses",
	}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.Runs; i++ {
		db, join, err := openDB(gen.Retailer(rng, scale))
		if err != nil {
			return t, err
		}
		item := func(i int) int { return i%gen.RetailerItems + 1 }

		db.SetPlanCacheCapacity(0)
		start := time.Now()
		var adhocTuples int64
		for i := 0; i < execs; i++ {
			res, err := db.Query(with(join, fdb.Cmp("Orders.item", fdb.EQ, item(i)))...)
			if err != nil {
				return t, err
			}
			adhocTuples += res.Count()
		}
		adhocMS := ms(start) / float64(execs)

		stmt, err := db.Prepare(with(join, fdb.Cmp("Orders.item", fdb.EQ, fdb.Param("item")))...)
		if err != nil {
			return t, err
		}
		start = time.Now()
		var preparedTuples int64
		for i := 0; i < execs; i++ {
			res, err := stmt.Exec(fdb.Arg("item", item(i)))
			if err != nil {
				return t, err
			}
			preparedTuples += res.Count()
		}
		preparedMS := ms(start) / float64(execs)
		if adhocTuples != preparedTuples {
			return t, fmt.Errorf("bench: exp5: prepared and ad-hoc legs disagree: %d vs %d tuples",
				preparedTuples, adhocTuples)
		}

		db.SetPlanCacheCapacity(64)
		before := db.CacheStats()
		for i := 0; i < execs; i++ {
			if _, err := db.Query(join...); err != nil {
				return t, err
			}
		}
		after := db.CacheStats()
		hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
		if hits+1 < uint64(execs) {
			return t, fmt.Errorf("bench: exp5: %d plan-cache hits over %d identical queries", hits, execs)
		}
		t.add("%d %.3f %.3f %.2f %d %d", execs, adhocMS, preparedMS, ratio(adhocMS, preparedMS), hits, misses)
	}
	return t, nil
}
