package frep

import (
	"math/rand"
	"sync"
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
		if got, want := e.CountParallel(4), e.Count(); got != want {
			t.Fatalf("seed %d: CountParallel = %d, Count = %d", seed, got, want)
		}
	}
}

// TestEncIteratorRangeLockstep: concatenating the shard iterators
// reproduces the serial enumeration exactly, in order.
func TestEncIteratorRangeLockstep(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	trials := 0
	for seed := int64(0); trials < 80; seed++ {
		e := quickEnc(seed*31 + rng.Int63n(100))
		trials++
		var serial []relation.Tuple
		e.Enumerate(func(tp relation.Tuple) bool {
			serial = append(serial, tp.Clone())
			return true
		})
		for _, n := range []int{1, 2, 3, 7} {
			var got []relation.Tuple
			for _, it := range e.EnumerateShards(n) {
				for {
					tp, ok := it.Next()
					if !ok {
						break
					}
					got = append(got, tp.Clone())
				}
			}
			if len(got) != len(serial) {
				t.Fatalf("seed %d (shards=%d): %d tuples, want %d", seed, n, len(got), len(serial))
			}
			for i := range got {
				if got[i].Compare(serial[i]) != 0 {
					t.Fatalf("seed %d (shards=%d): tuple %d = %v, want %v", seed, n, i, got[i], serial[i])
				}
			}
		}
	}
}

// TestEnumerateParallel: the concurrent enumeration yields exactly the
// serial multiset of tuples, and early termination stops all workers.
func TestEnumerateParallel(t *testing.T) {
	e := quickEnc(12345)
	for seed := int64(0); e.IsEmpty(); seed++ {
		e = quickEnc(seed)
	}
	want := map[string]int{}
	total := 0
	e.Enumerate(func(tp relation.Tuple) bool {
		want[tupleKey(tp)]++
		total++
		return true
	})

	var mu sync.Mutex
	got := map[string]int{}
	e.EnumerateParallel(4, func(_ int, tp relation.Tuple) bool {
		mu.Lock()
		got[tupleKey(tp)]++
		mu.Unlock()
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("parallel enumeration saw %d distinct tuples, want %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("tuple %q seen %d times, want %d", k, got[k], n)
		}
	}

	// Early stop: never more than a few tuples per worker after the signal.
	var n int
	e.EnumerateParallel(4, func(_ int, relTuple relation.Tuple) bool {
		mu.Lock()
		n++
		mu.Unlock()
		return false
	})
	if n > 4 {
		t.Fatalf("early-stopped enumeration yielded %d tuples (> one per worker)", n)
	}
	if n == 0 && total > 0 {
		t.Fatal("early-stopped enumeration yielded nothing")
	}
}

func tupleKey(t relation.Tuple) string {
	b := make([]byte, 0, len(t)*8)
	for _, v := range t {
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(v>>s))
		}
	}
	return string(b)
}
