package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/gen"
)

// mixedReadWrite is Experiment 10: per-operation latency percentiles with
// ~10% batch writes interleaved into cached reads, and the plan-cache hit
// rate across the run — writes never evict, so the rate must stay above 90%.
// Every read after a write refreshes the statement: the batch folds into
// its sorted inputs and the encoding is rebuilt.
func mixedReadWrite(cfg Config, scales []int, ops int) (Table, error) {
	t := Table{Header: []string{
		"Experiment 10: mixed 90/10 read/write latency — batch inserts between cached reads",
		"workload scale ops writes read_p50_ms read_p99_ms write_p50_ms cache_hit_rate",
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
