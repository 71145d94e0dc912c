package bench

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fbuild"
	"repro/internal/frep"
	"repro/internal/gen"
	"repro/internal/relation"
)

// Exp8Row is one point of Experiment 8: the morsel-parallel execution paths
// (build, aggregation, enumeration) at one worker count. Speedups are left
// to the consumer (cmd/fdbench computes them from times averaged across
// runs, where single-row ratios would only add noise).
type Exp8Row struct {
	Workload string
	Scale    int
	Workers  int
	RepSize  int64 // singletons in the factorised result
	Tuples   int64 // tuples of the (never materialised) flat result
	BuildMS  float64
	AggMS    float64
	EnumMS   float64
}

// Exp8Config parameterises one Experiment 8 sweep.
type Exp8Config struct {
	Scale   int
	Workers []int // worker counts to sweep; the first should be 1
	MaxEnum int64 // skip the enumeration legs above this many flat tuples (0: never)
}

// Experiment8Retailer sweeps worker counts on the scaled retailer workload:
// heavy many-to-many joins, grouped aggregation per location.
func Experiment8Retailer(rng *rand.Rand, cfg Exp8Config) ([]Exp8Row, error) {
	q := RetailerQuery(rng, cfg.Scale)
	groupBy := []relation.Attribute{"s_location"}
	specs := []frep.AggSpec{
		{Fn: frep.AggCount},
		{Fn: frep.AggSum, Attr: "o_oid"},
		{Fn: frep.AggCountDistinct, Attr: "o_item"},
	}
	return experiment8(q, "retailer", cfg, groupBy, specs)
}

// Experiment8Chain sweeps worker counts on the chain query of Example 6
// (length = cfg.Scale): tiny input, astronomically large flat result, so
// aggregation and enumeration dominate.
func Experiment8Chain(rng *rand.Rand, cfg Exp8Config) ([]Exp8Row, error) {
	n := cfg.Scale
	q := gen.ChainQuery(rng, n, 100, 20)
	groupBy := []relation.Attribute{"A1"}
	specs := []frep.AggSpec{
		{Fn: frep.AggCount},
		{Fn: frep.AggSum, Attr: relation.Attribute(fmt.Sprintf("B%d", n))},
	}
	return experiment8(q, "chain", cfg, groupBy, specs)
}

// experiment8 runs one sweep: a shared lifted f-tree and pre-sorted inputs
// (the prepared-statement situation), then per worker count one parallel
// build, one parallel grouped aggregation and one sharded enumeration, each
// cross-checked against the 1-worker leg.
func experiment8(q *core.Query, workload string, cfg Exp8Config, groupBy []relation.Attribute, specs []frep.AggSpec) ([]Exp8Row, error) {
	tr, err := liftedTree(q, groupBy)
	if err != nil {
		return nil, err
	}
	rels := cloneRels(q.Relations)
	// Sort once up front, as Prepare does: the sweep then measures the
	// parallel build itself, not the one-off sort.
	if err := fbuild.SortFor(rels, tr); err != nil {
		return nil, err
	}

	var out []Exp8Row
	var serial *frep.Enc
	var serialRows []frep.AggRow
	for _, w := range cfg.Workers {
		row := Exp8Row{Workload: workload, Scale: cfg.Scale, Workers: w}

		start := time.Now()
		enc, err := fbuild.BuildEncParallel(rels, tr.Clone(), w)
		if err != nil {
			return nil, err
		}
		row.BuildMS = ms(start)
		row.RepSize = int64(enc.Size())
		row.Tuples = enc.Count()

		start = time.Now()
		rows, err := enc.AggregateParallel(groupBy, specs, w)
		if err != nil {
			return nil, err
		}
		row.AggMS = ms(start)

		enumerate := cfg.MaxEnum == 0 || row.Tuples <= cfg.MaxEnum
		if enumerate {
			start = time.Now()
			var n atomic.Int64
			enc.EnumerateParallel(w, func(int, relation.Tuple) bool {
				n.Add(1)
				return true
			})
			row.EnumMS = ms(start)
			if n.Load() != row.Tuples {
				return nil, fmt.Errorf("bench: exp8 %s/%d (w=%d): enumerated %d tuples, Count says %d",
					workload, cfg.Scale, w, n.Load(), row.Tuples)
			}
		}

		if serial == nil {
			serial, serialRows = enc, rows
		} else {
			// Every leg must agree with the first bit for bit.
			if !enc.Equal(serial) {
				return nil, fmt.Errorf("bench: exp8 %s/%d: %d-worker build differs from %d-worker build",
					workload, cfg.Scale, w, cfg.Workers[0])
			}
			if len(rows) != len(serialRows) {
				return nil, fmt.Errorf("bench: exp8 %s/%d: %d-worker aggregation has %d groups, want %d",
					workload, cfg.Scale, w, len(rows), len(serialRows))
			}
			for i := range rows {
				for j := range rows[i].Vals {
					if rows[i].Vals[j] != serialRows[i].Vals[j] {
						return nil, fmt.Errorf("bench: exp8 %s/%d: %d-worker aggregation differs in group %v",
							workload, cfg.Scale, w, rows[i].Key)
					}
				}
			}
		}
		out = append(out, row)
	}
	return out, nil
}
