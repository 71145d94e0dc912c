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

// TestAggregateParallelLockstep: the parallel aggregation pass agrees with
// the serial pass exactly — grouped and global, across random
// representations lifted for their group-by attributes and worker counts.
func TestAggregateParallelLockstep(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	attrs := []relation.Attribute{"A", "B", "C"}
	for trial := 1; trial <= 120; trial++ {
		seed := int64(trial)*7717 + rng.Int63n(1000)
		groupBy := groupSubset(attrs, rng.Intn(8))
		e, err := fromRelation(pathTree(liftedOrder(rng, attrs, groupBy)...), aggRel(seed))
		if err != nil {
			t.Fatal(err)
		}
		specs := parallelAggSpecs(e.Schema())
		serial, err := e.Aggregate(groupBy, specs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, p := range []int{2, 3, 5, 8} {
			par, err := e.AggregateParallel(groupBy, specs, p)
			if err != nil {
				t.Fatalf("seed %d (p=%d): %v", seed, p, err)
			}
			if !rowsEqual(serial, par) {
				t.Fatalf("seed %d (p=%d): parallel aggregation differs\nserial: %v\npar:    %v\ngroupBy %v",
					seed, p, serial, par, groupBy)
			}
		}
	}
}
