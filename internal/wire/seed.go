package wire

import (
	"math/rand"
	"strings"

	fdb "repro"
	"repro/internal/gen"
	"repro/internal/relation"
)

// Seed creates rels in db and inserts their tuples in order, one batch per
// relation. Attributes must be named the way the database qualifies them
// ("Orders.oid" in relation Orders), as internal/gen names them.
func Seed(db *fdb.DB, rels []*relation.Relation) error {
	for _, r := range rels {
		attrs := make([]string, len(r.Schema))
		for i, a := range r.Schema {
			attrs[i] = strings.TrimPrefix(string(a), r.Name+".")
		}
		if err := db.Create(r.Name, attrs...); err != nil {
			return err
		}
		rows := make([][]interface{}, len(r.Tuples))
		for i, t := range r.Tuples {
			row := make([]interface{}, len(t))
			for j, v := range t {
				row[j] = v
			}
			rows[i] = row
		}
		if err := db.InsertBatch(r.Name, rows); err != nil {
			return err
		}
	}
	return nil
}

// SeedRetailer loads the deterministic retailer workload (gen.Retailer):
// Orders(oid, item), Stock(location, item), Disp(dispatcher, location). The
// server preloads it and the load harness rebuilds it in-process from the
// same seed, so every wire response can be checked byte for byte against
// library execution.
func SeedRetailer(db *fdb.DB, seed int64, scale int) error {
	if scale < 1 {
		scale = 1
	}
	return Seed(db, gen.Retailer(rand.New(rand.NewSource(seed)), scale).Relations)
}

// retailerJoin is the three-way join every retailer load query starts from.
func retailerJoin() Spec {
	sp := NewSpec("Orders", "Stock", "Disp")
	sp.Eqs = [][2]string{
		{"Orders.item", "Stock.item"},
		{"Stock.location", "Disp.location"},
	}
	return sp
}

// LoadQuery is one query of the load harness's read pool: a wire spec plus
// a deterministic argument generator for its parameters.
type LoadQuery struct {
	Name string
	Spec Spec
	Args func(rng *rand.Rand) []Arg
}

// RetailerQueries is the deterministic read pool over the retailer
// workload: a mix of parameterised point/range selections, ordered top-k,
// DISTINCT projection and grouped aggregates, exercising both Exec and
// ExecAgg. The pool is fixed so the harness and its differential reference
// prepare the same statements in the same order.
func RetailerQueries() []LoadQuery {
	noArgs := func(*rand.Rand) []Arg { return nil }

	itemPoint := retailerJoin()
	itemPoint.Sels = []Sel{SelParam("Orders.item", OpEQ, "item")}
	itemPoint.Project = []string{"Orders.oid", "Stock.location", "Disp.dispatcher"}
	itemPoint.OrderBy = []OrderKey{{Attr: "Orders.oid"}, {Attr: "Stock.location"}, {Attr: "Disp.dispatcher"}}
	itemPoint.Limit = 64

	locRange := retailerJoin()
	locRange.Sels = []Sel{SelParam("Stock.location", OpLE, "loc")}
	locRange.Project = []string{"Stock.location", "Orders.item"}
	locRange.Distinct = true
	locRange.OrderBy = []OrderKey{{Attr: "Stock.location"}, {Attr: "Orders.item"}}

	topDispatch := retailerJoin()
	topDispatch.Project = []string{"Disp.dispatcher", "Orders.item"}
	topDispatch.Distinct = true
	topDispatch.OrderBy = []OrderKey{{Attr: "Disp.dispatcher", Desc: true}, {Attr: "Orders.item"}}
	topDispatch.Limit = 32
	topDispatch.Offset = 8

	countByDisp := retailerJoin()
	countByDisp.GroupBy = []string{"Disp.dispatcher"}
	countByDisp.Aggs = []AggSpec{{Fn: AggCount}, {Fn: AggCountDistinct, Attr: "Orders.item"}}

	sumByLoc := retailerJoin()
	sumByLoc.Sels = []Sel{SelParam("Orders.item", OpGE, "lo"), SelParam("Orders.item", OpLE, "hi")}
	sumByLoc.GroupBy = []string{"Stock.location"}
	sumByLoc.Aggs = []AggSpec{{Fn: AggCount}, {Fn: AggMax, Attr: "Orders.oid"}}

	totalCount := retailerJoin()
	totalCount.Aggs = []AggSpec{{Fn: AggCount}}

	return []LoadQuery{
		{Name: "item_point", Spec: itemPoint, Args: func(rng *rand.Rand) []Arg {
			return []Arg{{Name: "item", Val: Int(int64(rng.Intn(50) + 1))}}
		}},
		{Name: "loc_range", Spec: locRange, Args: func(rng *rand.Rand) []Arg {
			return []Arg{{Name: "loc", Val: Int(int64(rng.Intn(40) + 1))}}
		}},
		{Name: "top_dispatch", Spec: topDispatch, Args: noArgs},
		{Name: "count_by_disp", Spec: countByDisp, Args: noArgs},
		{Name: "agg_item_band", Spec: sumByLoc, Args: func(rng *rand.Rand) []Arg {
			lo := rng.Intn(40) + 1
			return []Arg{{Name: "lo", Val: Int(int64(lo))}, {Name: "hi", Val: Int(int64(lo + 10))}}
		}},
		{Name: "total_count", Spec: totalCount, Args: noArgs},
	}
}
