package bench

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/fbuild"
	"repro/internal/fplan"
	"repro/internal/frep"
	"repro/internal/ftree"
	"repro/internal/gen"
	"repro/internal/opt"
	"repro/internal/relation"
)

// aggWorkload is one grouped-aggregation workload of Experiment 6.
type aggWorkload struct {
	name    string
	scale   int // retailer scale factor / chain length
	query   func(*rand.Rand) *core.Query
	groupBy []relation.Attribute
	specs   []frep.AggSpec
}

// RetailerQuery is gen.Retailer under set semantics, for building below
// the API (a database establishes them itself).
func RetailerQuery(rng *rand.Rand, scale int) *core.Query {
	q := gen.Retailer(rng, scale)
	for _, r := range q.Relations {
		r.Dedup()
	}
	return q
}

// aggWorkloads lists the two workloads over their sweeps: the retailer join
// (per-location order count, oid sum and distinct items) and the chain
// query of Example 6, whose flat result grows exponentially with the
// length, so enumerate-then-fold falls off a cliff the factorised pass
// never sees (100 tuples per relation, values from [1,20]; per-R1.A count
// and sum of the far endpoint).
func aggWorkloads(cfg Config, retailer, chain []int) []aggWorkload {
	var out []aggWorkload
	for _, scale := range trim(cfg, retailer) {
		out = append(out, aggWorkload{
			name: "retailer", scale: scale,
			query:   func(rng *rand.Rand) *core.Query { return RetailerQuery(rng, scale) },
			groupBy: []relation.Attribute{"Stock.location"},
			specs: []frep.AggSpec{
				{Fn: frep.AggCount},
				{Fn: frep.AggSum, Attr: "Orders.oid"},
				{Fn: frep.AggCountDistinct, Attr: "Orders.item"},
			},
		})
	}
	for _, n := range trim(cfg, chain) {
		out = append(out, aggWorkload{
			name: "chain", scale: n,
			query:   func(rng *rand.Rand) *core.Query { return gen.ChainQuery(rng, n, 100, 20) },
			groupBy: []relation.Attribute{"R1.A"},
			specs: []frep.AggSpec{
				{Fn: frep.AggCount},
				{Fn: frep.AggSum, Attr: relation.Attribute(fmt.Sprintf("R%d.B", n))},
			},
		})
	}
	return out
}

// aggregation is Experiment 6: factorised single-pass aggregation versus
// enumerate-then-fold over the same factorised result — optimal f-tree,
// lift of the group-by attributes (as the query compiler does at Prepare
// time), one build, then both strategies, which must agree exactly. The
// fold leg is skipped above maxFold flat tuples.
func aggregation(cfg Config, retailer, chain []int, maxFold int64) (Table, error) {
	t := Table{Header: []string{
		"Experiment 6: grouped aggregation on the factorised result — single pass vs enumerate-then-fold",
		"workload scale frep_size flat_tuples groups fact_ms fold_ms speedup fold_skipped",
	}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, w := range aggWorkloads(cfg, retailer, chain) {
		// frep_size flat_tuples groups fact_ms fold_ms fold_skipped
		m, err := mean(cfg.Runs, func() ([][]float64, error) { return one(aggregationPoint(w, w.query(rng), maxFold)) })
		if err != nil {
			return t, err
		}
		r := m[0]
		skipped := r[5] > 0
		speedup := 0.0
		if !skipped {
			speedup = ratio(r[4], r[3])
		}
		t.add("%s %d %d %d %d %.3f %.3f %.1f %v", w.name, w.scale,
			int64(r[0]), int64(r[1]), int(r[2]), r[3], r[4], speedup, skipped)
	}
	return t, nil
}

// aggregationPoint runs one Experiment 6 measurement.
func aggregationPoint(w aggWorkload, q *core.Query, maxFold int64) ([]float64, error) {
	fr, err := BuildRep(q, w.groupBy)
	if err != nil {
		return nil, err
	}
	tuples := fr.Count()
	start := time.Now()
	fact, err := fr.Aggregate(w.groupBy, w.specs)
	if err != nil {
		return nil, err
	}
	factMS := ms(start)
	row := []float64{float64(fr.Size()), float64(tuples), float64(len(fact)), factMS, 0, 0}
	if tuples > maxFold {
		row[5] = 1
		return row, nil
	}
	start = time.Now()
	fold := FoldAggregate(fr, w.groupBy, w.specs)
	row[4] = ms(start)
	if len(fact) != len(fold) {
		return nil, fmt.Errorf("bench: exp6 %s/%d: aggregation mismatch: %d vs %d groups", w.name, w.scale, len(fact), len(fold))
	}
	for i := range fact {
		if !slices.Equal(fact[i].Key, fold[i].Key) || !slices.Equal(fact[i].Vals, fold[i].Vals) {
			return nil, fmt.Errorf("bench: exp6 %s/%d: aggregation mismatch at row %d: %v %v vs %v %v",
				w.name, w.scale, i, fact[i].Key, fact[i].Vals, fold[i].Key, fold[i].Vals)
		}
	}
	return row, nil
}

// FoldAggregate is the enumerate-then-fold baseline: it enumerates the
// flat relation tuple by tuple (over the encoded representation's
// constant-delay iterator) and folds every aggregate — what a consumer
// without factorised aggregation is forced to do. Exact (no saturation);
// the reference of Experiment 6 and the aggregate benchmarks.
func FoldAggregate(fr *frep.Enc, groupBy []relation.Attribute, specs []frep.AggSpec) []frep.AggRow {
	schema := fr.Schema()
	pos := map[relation.Attribute]int{}
	for i, a := range schema {
		pos[a] = i
	}
	gcols := make([]int, len(groupBy))
	for i, a := range groupBy {
		gcols[i] = pos[a]
	}
	acols := make([]int, len(specs))
	for i, s := range specs {
		if s.Fn != frep.AggCount {
			acols[i] = pos[s.Attr]
		}
	}
	type state struct {
		key  []relation.Value
		cnt  int64
		sum  []int64
		m    []int64
		mSet []bool
		dist []map[relation.Value]struct{}
	}
	groups := map[string]*state{}
	keybuf := make([]byte, 8*len(groupBy))
	fr.Enumerate(func(t relation.Tuple) bool {
		for i, c := range gcols {
			v := uint64(t[c])
			for b := 0; b < 8; b++ {
				keybuf[8*i+b] = byte(v >> (8 * b))
			}
		}
		k := string(keybuf)
		s, ok := groups[k]
		if !ok {
			s = &state{
				key: make([]relation.Value, len(groupBy)), sum: make([]int64, len(specs)),
				m: make([]int64, len(specs)), mSet: make([]bool, len(specs)),
				dist: make([]map[relation.Value]struct{}, len(specs)),
			}
			for i, c := range gcols {
				s.key[i] = t[c]
			}
			groups[k] = s
		}
		s.cnt++
		for i, sp := range specs {
			switch sp.Fn {
			case frep.AggCount:
			case frep.AggSum:
				s.sum[i] += int64(t[acols[i]])
			case frep.AggMin:
				if v := int64(t[acols[i]]); !s.mSet[i] || v < s.m[i] {
					s.m[i], s.mSet[i] = v, true
				}
			case frep.AggMax:
				if v := int64(t[acols[i]]); !s.mSet[i] || v > s.m[i] {
					s.m[i], s.mSet[i] = v, true
				}
			case frep.AggCountDistinct:
				if s.dist[i] == nil {
					s.dist[i] = map[relation.Value]struct{}{}
				}
				s.dist[i][t[acols[i]]] = struct{}{}
			}
		}
		return true
	})
	rows := make([]frep.AggRow, 0, len(groups))
	for _, s := range groups {
		row := frep.AggRow{Key: s.key, Vals: make([]int64, len(specs))}
		for i, sp := range specs {
			switch sp.Fn {
			case frep.AggCount:
				row.Vals[i] = s.cnt
			case frep.AggSum:
				row.Vals[i] = s.sum[i]
			case frep.AggMin, frep.AggMax:
				row.Vals[i] = s.m[i]
			case frep.AggCountDistinct:
				row.Vals[i] = int64(len(s.dist[i]))
			}
		}
		rows = append(rows, row)
	}
	sortAggRows(rows)
	return rows
}

func sortAggRows(rows []frep.AggRow) {
	// Same order as Enc.Aggregate: lexicographic on the key values.
	sort.Slice(rows, func(i, j int) bool { return aggKeyLess(rows[i].Key, rows[j].Key) })
}

func aggKeyLess(a, b []relation.Value) bool {
	for k := range a {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

// BuildRep compiles q (optimal f-tree search, then the Prepare-time lift
// of the group-by attributes above everything else) and builds its
// factorised representation in the arena-backed encoding — the engine's
// hot path since the columnar refactor.
func BuildRep(q *core.Query, groupBy []relation.Attribute) (*frep.Enc, error) {
	tr, err := liftedTree(q, groupBy)
	if err != nil {
		return nil, err
	}
	return fbuild.BuildEnc(cloneRels(q.Relations), tr)
}

// liftedTree finds the optimal f-tree for q and lifts the group-by
// attributes above everything else, as the query compiler does at Prepare
// time.
func liftedTree(q *core.Query, groupBy []relation.Attribute) (*ftree.T, error) {
	tr, _, err := opt.OptimalFTree(q.Classes(), q.Schemas(), opt.TreeSearchOptions{})
	if err != nil {
		return nil, err
	}
	if len(groupBy) > 0 {
		if err := (fplan.Lift{Attrs: groupBy}).ApplyTree(tr); err != nil {
			return nil, err
		}
	}
	return tr, nil
}
