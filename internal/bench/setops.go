package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	fdb "repro"
	"repro/internal/frep"
	"repro/internal/rdb"
	"repro/internal/relation"
)

// Exp14Row is one point of Experiment 14: native set algebra over the
// encoded representations (the structural two-cursor merge of SetUnionEnc and
// friends) against the flat baseline that enumerates both legs and runs the
// hash-based set operation over materialised tuples. The legs are two
// overlapping range selections of the retailer join, so the merge exercises
// both shared and leg-private structure. Before timings are reported the
// factorised result is enumerated and compared tuple-for-tuple against the
// flat mirror — a failed parity check is a hard error, not a data point.
type Exp14Row struct {
	Op      string
	Scale   int
	TuplesA int64   // flat tuples of leg A (oid below the upper cut)
	TuplesB int64   // flat tuples of leg B (oid above the lower cut)
	Tuples  int64   // flat tuples of the set-operation result
	RepSize int64   // singletons in the factorised result
	BuildMS float64 // executing the two legs (shared by both sides)
	FactMS  float64 // factorised structural merge
	FlatMS  float64 // flat hash-based baseline over materialised legs
	Speedup float64 // FlatMS / FactMS
}

// Exp14Config parameterises one Experiment 14 measurement.
type Exp14Config struct {
	Scale int
}

// exp14MinSpeedup is the performance bar the experiment enforces once the
// workload is large enough for timings to dominate noise: at retailer scale
// >= 4 the structural merge must beat the flat baseline.
const exp14MinSpeedup = 1.0

// Experiment14Retailer builds the scaled retailer join, carves two
// overlapping legs out of it with range selections on Orders.oid (leg A
// keeps the lower 70%, leg B the upper 70%, so 40% of oids land in both),
// and measures every set operation both natively and flat.
func Experiment14Retailer(rng *rand.Rand, cfg Exp14Config) ([]Exp14Row, error) {
	scale := cfg.Scale
	if scale <= 0 {
		scale = 1
	}
	db, join := exp9Retailer(rng, scale)
	legA := append(join[:len(join):len(join)], fdb.Cmp("Orders.oid", fdb.LT, 350*scale))
	legB := append(join[:len(join):len(join)], fdb.Cmp("Orders.oid", fdb.GT, 150*scale))

	start := time.Now()
	resA, err := db.Query(legA...)
	if err != nil {
		return nil, err
	}
	resB, err := db.Query(legB...)
	if err != nil {
		return nil, err
	}
	buildMS := ms(start)

	// The baseline starts from materialised legs — a flat engine would hold
	// flat results already — so the enumeration is not part of its timing.
	relA := flatOf("A", resA)
	relB := flatOf("B", resB)

	ops := []struct {
		name string
		fact func(*fdb.Result, *fdb.Result) (*fdb.Result, error)
		flat func(*relation.Relation, *relation.Relation) (*relation.Relation, error)
	}{
		{"union", (*fdb.Result).Union, rdb.Union},
		{"union_all", (*fdb.Result).UnionAll, rdb.UnionAll},
		{"except", (*fdb.Result).Except, rdb.Except},
		{"intersect", (*fdb.Result).Intersect, rdb.Intersect},
	}
	var rows []Exp14Row
	for _, op := range ops {
		row := Exp14Row{
			Op: op.name, Scale: scale,
			TuplesA: resA.Count(), TuplesB: resB.Count(), BuildMS: buildMS,
		}
		start = time.Now()
		fres, err := op.fact(resA, resB)
		if err != nil {
			return rows, err
		}
		row.FactMS = ms(start)
		row.Tuples = fres.Count()
		row.RepSize = int64(fres.Size())

		start = time.Now()
		want, err := op.flat(relA, relB)
		if err != nil {
			return rows, err
		}
		row.FlatMS = ms(start)
		if row.FactMS > 0 {
			row.Speedup = row.FlatMS / row.FactMS
		}

		if err := exp14Parity(op.name, scale, fres, want); err != nil {
			return rows, err
		}
		if scale >= 4 && row.Speedup < exp14MinSpeedup {
			return rows, fmt.Errorf("bench: exp14 %s/%d: factorised merge %.3fms is not faster than flat %.3fms",
				op.name, scale, row.FactMS, row.FlatMS)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// flatOf materialises a result into a flat relation carrying its schema.
func flatOf(name string, res *fdb.Result) *relation.Relation {
	var schema relation.Schema
	for _, a := range res.Schema() {
		schema = append(schema, relation.Attribute(a))
	}
	r := relation.New(name, schema)
	it := res.Iter()
	for {
		t, ok := it.Next()
		if !ok {
			return r
		}
		r.AppendTuple(t.Clone())
	}
}

// exp14Parity compares the factorised set-operation result against its flat
// mirror: count, then every tuple position after projecting the mirror into
// the factorised column order and sorting both sides with the deterministic
// comparator (duplicates survive, so union-all bags compare exactly).
func exp14Parity(op string, scale int, fres *fdb.Result, want *relation.Relation) error {
	if fres.Count() != int64(len(want.Tuples)) {
		return fmt.Errorf("bench: exp14 %s/%d: factorised %d tuples, flat %d",
			op, scale, fres.Count(), len(want.Tuples))
	}
	var fSchema relation.Schema
	for _, a := range fres.Schema() {
		fSchema = append(fSchema, relation.Attribute(a))
	}
	got := drain(fres.Iter())
	ref := project(want.Tuples, want.Schema, fSchema)
	cmp := frep.TupleCompare(fSchema, nil, nil)
	sort.SliceStable(got, func(i, j int) bool { return cmp(got[i], got[j]) < 0 })
	sort.SliceStable(ref, func(i, j int) bool { return cmp(ref[i], ref[j]) < 0 })
	for i := range got {
		if got[i].Compare(ref[i]) != 0 {
			return fmt.Errorf("bench: exp14 %s/%d: results diverge at %d: factorised %v, flat %v",
				op, scale, i, got[i], ref[i])
		}
	}
	return nil
}
