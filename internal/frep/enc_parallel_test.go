package frep

import (
	"math/rand"
	"testing"

	"repro/internal/relation"
)

// parallelAggSpecs exercises every aggregate function.
func parallelAggSpecs(schema relation.Schema) []AggSpec {
	specs := []AggSpec{{Fn: AggCount}}
	if len(schema) > 0 {
		specs = append(specs,
			AggSpec{Fn: AggSum, Attr: schema[0]},
			AggSpec{Fn: AggMin, Attr: schema[0]},
			AggSpec{Fn: AggMax, Attr: schema[len(schema)-1]},
			AggSpec{Fn: AggCountDistinct, Attr: schema[len(schema)-1]})
	}
	return specs
}

func aggRowsEqual(a, b []AggRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Key) != len(b[i].Key) || len(a[i].Vals) != len(b[i].Vals) {
			return false
		}
		for j := range a[i].Key {
			if a[i].Key[j] != b[i].Key[j] {
				return false
			}
		}
		for j := range a[i].Vals {
			if a[i].Vals[j] != b[i].Vals[j] {
				return false
			}
		}
	}
	return true
}

// TestAggregateParallelLockstep: the parallel aggregation pass agrees with
// the serial pass exactly — grouped and global, across random
// representations and worker counts.
func TestAggregateParallelLockstep(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	trials := 0
	for seed := int64(0); trials < 120; seed++ {
		e := quickEnc(seed*7717 + rng.Int63n(1000))
		trials++
		schema := e.Schema()
		specs := parallelAggSpecs(schema)
		var groupBy []relation.Attribute
		if len(schema) > 1 && trials%3 != 0 {
			groupBy = schema[:1+trials%2]
		}
		serial, err := e.Aggregate(groupBy, specs)
		if err != nil {
			continue // e.g. aggregate over hidden attribute
		}
		for _, p := range []int{2, 3, 5, 8} {
			par, err := e.AggregateParallel(groupBy, specs, p)
			if err != nil {
				t.Fatalf("seed %d (p=%d): %v", seed, p, err)
			}
			if !aggRowsEqual(serial, par) {
				t.Fatalf("seed %d (p=%d): parallel aggregation differs\nserial: %v\npar:    %v\ngroupBy %v",
					seed, p, serial, par, groupBy)
			}
		}
	}
}
