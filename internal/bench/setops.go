package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	fdb "repro"
	"repro/internal/frep"
	"repro/internal/gen"
	"repro/internal/rdb"
	"repro/internal/relation"
)

// setAlgebra is Experiment 14: native set algebra over the encoded
// representations (the structural two-cursor merge of SetUnionEnc and
// friends) against the flat baseline that runs the hash-based set operation
// over materialised tuples. The legs are two overlapping range selections of
// the retailer join on Orders.oid (leg A keeps the lower 70%, leg B the
// upper 70%, so 40% of oids land in both), so the merge exercises both
// shared and leg-private structure. The factorised result is enumerated and
// compared tuple-for-tuple against the flat mirror, and once the workload
// is large enough for timings to dominate noise (scale >= 4) the structural
// merge must beat the flat baseline by minSpeedup — a failed check is a
// hard error, not a data point.
func setAlgebra(cfg Config, scales []int, minSpeedup float64) (Table, error) {
	t := Table{Header: []string{
		"Experiment 14: native set algebra over the encoding (structural merge) vs flat hash baseline, retailer legs",
		"op scale leg_a_tuples leg_b_tuples result_tuples frep_size build_ms fact_ms flat_ms speedup",
	}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, scale := range trim(cfg, scales) {
		// Per operator: leg_a_tuples leg_b_tuples result_tuples frep_size build_ms fact_ms flat_ms
		m, err := mean(cfg.Runs, func() ([][]float64, error) { return setAlgebraPoint(rng, scale, minSpeedup) })
		if err != nil {
			return t, err
		}
		for i, r := range m {
			t.add("%s %d %d %d %d %d %.3f %.3f %.3f %.1f", setOps[i].name, scale,
				int64(r[0]), int64(r[1]), int64(r[2]), int64(r[3]), r[4], r[5], r[6], ratio(r[6], r[5]))
		}
	}
	return t, nil
}

// setOps pairs each native operator with its flat mirror.
var setOps = []struct {
	name string
	fact func(*fdb.Result, *fdb.Result) (*fdb.Result, error)
	flat func(*relation.Relation, *relation.Relation) (*relation.Relation, error)
}{
	{"union", (*fdb.Result).Union, rdb.Union},
	{"union_all", (*fdb.Result).UnionAll, rdb.UnionAll},
	{"except", (*fdb.Result).Except, rdb.Except},
	{"intersect", (*fdb.Result).Intersect, rdb.Intersect},
}

// setAlgebraPoint measures every set operation at one scale, natively and
// flat, one row per operator.
func setAlgebraPoint(rng *rand.Rand, scale int, minSpeedup float64) ([][]float64, error) {
	db, join, err := openDB(gen.Retailer(rng, scale))
	if err != nil {
		return nil, err
	}
	start := time.Now()
	resA, err := db.Query(with(join, fdb.Cmp("Orders.oid", fdb.LT, 350*scale))...)
	if err != nil {
		return nil, err
	}
	resB, err := db.Query(with(join, fdb.Cmp("Orders.oid", fdb.GT, 150*scale))...)
	if err != nil {
		return nil, err
	}
	buildMS := ms(start)

	// The baseline starts from materialised legs — a flat engine would hold
	// flat results already — so the enumeration is not part of its timing.
	relA := flatOf("A", resA)
	relB := flatOf("B", resB)

	var rows [][]float64
	for _, op := range setOps {
		start = time.Now()
		fres, err := op.fact(resA, resB)
		if err != nil {
			return nil, err
		}
		factMS := ms(start)

		start = time.Now()
		want, err := op.flat(relA, relB)
		if err != nil {
			return nil, err
		}
		flatMS := ms(start)

		if err := setOpParity(fres, want); err != nil {
			return nil, fmt.Errorf("bench: exp14 %s/%d: %w", op.name, scale, err)
		}
		if scale >= 4 && ratio(flatMS, factMS) < minSpeedup {
			return nil, fmt.Errorf("bench: exp14 %s/%d: factorised merge %.3fms is not %.1fx faster than flat %.3fms",
				op.name, scale, factMS, minSpeedup, flatMS)
		}
		rows = append(rows, []float64{float64(resA.Count()), float64(resB.Count()), float64(fres.Count()),
			float64(fres.Size()), buildMS, factMS, flatMS})
	}
	return rows, nil
}

// flatOf materialises a result into a flat relation carrying its schema.
func flatOf(name string, res *fdb.Result) *relation.Relation {
	r := relation.New(name, schemaOf(res))
	it := res.Iter()
	for {
		t, ok := it.Next()
		if !ok {
			return r
		}
		r.AppendTuple(t.Clone())
	}
}

// setOpParity compares a factorised set-operation result against its flat
// mirror: count, then every tuple position after projecting the mirror into
// the factorised column order and sorting both sides with the deterministic
// comparator (duplicates survive, so union-all bags compare exactly).
func setOpParity(fres *fdb.Result, want *relation.Relation) error {
	if fres.Count() != int64(len(want.Tuples)) {
		return fmt.Errorf("factorised %d tuples, flat %d", fres.Count(), len(want.Tuples))
	}
	fSchema := schemaOf(fres)
	got := drain(fres.Iter())
	ref := project(want.Tuples, want.Schema, fSchema)
	cmp := frep.TupleCompare(fSchema, nil, nil)
	sort.SliceStable(got, func(i, j int) bool { return cmp(got[i], got[j]) < 0 })
	sort.SliceStable(ref, func(i, j int) bool { return cmp(ref[i], ref[j]) < 0 })
	for i := range got {
		if got[i].Compare(ref[i]) != 0 {
			return fmt.Errorf("results diverge at %d: factorised %v, flat %v", i, got[i], ref[i])
		}
	}
	return nil
}
