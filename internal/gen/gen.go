// Package gen generates the synthetic workloads of the paper's experimental
// evaluation (Section 5): random schemas of R relations over A attributes,
// relations with values drawn uniformly or Zipf-distributed from [1, M],
// random conjunctions of K non-redundant equalities, the chain queries of
// Example 6, the scaled retailer workload, and the grocery retailer
// database of Figure 1.
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/fplan"
	"repro/internal/frep"
	"repro/internal/relation"
)

// Distribution selects how attribute values are drawn.
type Distribution int

// Supported value distributions.
const (
	Uniform Distribution = iota
	Zipf
)

func (d Distribution) String() string {
	if d == Zipf {
		return "zipf"
	}
	return "uniform"
}

// Sampler draws values from [1, M] under the given distribution. The Zipf
// exponent is fixed at 1.5 ("a more skewed distribution", Section 5).
type Sampler struct {
	dist Distribution
	m    int
	zipf *rand.Zipf
}

// NewSampler builds a sampler over [1, m].
func NewSampler(rng *rand.Rand, dist Distribution, m int) *Sampler {
	s := &Sampler{dist: dist, m: m}
	if dist == Zipf {
		s.zipf = rand.NewZipf(rng, 1.5, 1, uint64(m-1))
	}
	return s
}

// Draw returns one value in [1, m].
func (s *Sampler) Draw(rng *rand.Rand) relation.Value {
	if s.dist == Zipf {
		return relation.Value(s.zipf.Uint64() + 1)
	}
	return relation.Value(rng.Intn(s.m) + 1)
}

// Schema holds a generated database schema: R relations over A attributes
// named X1..XA, distributed evenly (attribute Xi goes to relation i mod R,
// positions shuffled).
type Schema struct {
	Relations []relation.Schema
	Names     []string
}

// RandomSchema distributes a attributes over r relations. Every relation
// receives at least one attribute (requires a >= r).
func RandomSchema(rng *rand.Rand, r, a int) (*Schema, error) {
	if a < r {
		return nil, fmt.Errorf("gen: cannot distribute %d attributes over %d relations", a, r)
	}
	perm := rng.Perm(a)
	out := &Schema{Relations: make([]relation.Schema, r), Names: make([]string, r)}
	for i := 0; i < r; i++ {
		out.Names[i] = fmt.Sprintf("R%d", i+1)
	}
	for i, p := range perm {
		ri := i % r
		out.Relations[ri] = append(out.Relations[ri], relation.Attribute(fmt.Sprintf("X%d", p+1)))
	}
	return out, nil
}

// Populate builds relations over the schema, each with n tuples drawn from
// the sampler, deduplicated.
func (s *Schema) Populate(rng *rand.Rand, n int, sm *Sampler) []*relation.Relation {
	out := make([]*relation.Relation, len(s.Relations))
	for i, sch := range s.Relations {
		r := relation.New(s.Names[i], sch)
		for j := 0; j < n; j++ {
			t := make(relation.Tuple, len(sch))
			for k := range t {
				t[k] = sm.Draw(rng)
			}
			r.AppendTuple(t)
		}
		r.Dedup()
		out[i] = r
	}
	return out
}

// RandomEqualities draws k non-redundant equalities over the schema's
// attributes: each new equality links two attributes in distinct
// equivalence classes (Section 5, "conjunctions of K non-redundant
// equalities"). Returns an error if k >= A (at most A-1 non-trivial joins
// exist).
func RandomEqualities(rng *rand.Rand, s *Schema, k int) ([]core.Equality, error) {
	var attrs []relation.Attribute
	for _, sch := range s.Relations {
		attrs = append(attrs, sch...)
	}
	if k >= len(attrs) {
		return nil, fmt.Errorf("gen: %d equalities need more than %d attributes", k, len(attrs))
	}
	parent := map[relation.Attribute]relation.Attribute{}
	var find func(a relation.Attribute) relation.Attribute
	find = func(a relation.Attribute) relation.Attribute {
		if parent[a] == a {
			return a
		}
		r := find(parent[a])
		parent[a] = r
		return r
	}
	for _, a := range attrs {
		parent[a] = a
	}
	var eqs []core.Equality
	guard := 0
	for len(eqs) < k {
		guard++
		if guard > 100000 {
			return nil, fmt.Errorf("gen: could not draw %d non-redundant equalities", k)
		}
		a := attrs[rng.Intn(len(attrs))]
		b := attrs[rng.Intn(len(attrs))]
		ra, rb := find(a), find(b)
		if ra == rb {
			continue
		}
		parent[rb] = ra
		eqs = append(eqs, core.Equality{A: a, B: b})
	}
	return eqs, nil
}

// RandomConstSels draws up to maxSels constant selections over attrs: a
// random attribute, a random operator from ops, and a constant in [1, m] —
// the selection-leg generator of the differential workloads (two
// independent draws give the two legs of a set-operation case).
func RandomConstSels(rng *rand.Rand, attrs []relation.Attribute, maxSels, m int, ops []fplan.Cmp) []core.ConstSel {
	var sels []core.ConstSel
	if len(attrs) == 0 || len(ops) == 0 {
		return nil
	}
	for i := rng.Intn(maxSels + 1); i > 0; i-- {
		sels = append(sels, core.ConstSel{
			A:  attrs[rng.Intn(len(attrs))],
			Op: ops[rng.Intn(len(ops))],
			C:  relation.Value(1 + rng.Intn(m)),
		})
	}
	return sels
}

// RandomOrderBy draws 1..maxKeys ORDER BY keys over distinct attributes of
// attrs, each ascending or descending with equal probability — the sort-key
// generator of the order-aware differential workloads.
func RandomOrderBy(rng *rand.Rand, attrs []relation.Attribute, maxKeys int) []frep.OrderKey {
	if len(attrs) == 0 || maxKeys < 1 {
		return nil
	}
	if maxKeys > len(attrs) {
		maxKeys = len(attrs)
	}
	perm := rng.Perm(len(attrs))
	n := 1 + rng.Intn(maxKeys)
	keys := make([]frep.OrderKey, 0, n)
	for _, i := range perm[:n] {
		keys = append(keys, frep.OrderKey{Attr: attrs[i], Desc: rng.Intn(2) == 1})
	}
	return keys
}

// RandomQuery assembles a full random query: schema, data, equalities.
func RandomQuery(rng *rand.Rand, r, a, n, k int, dist Distribution, m int) (*core.Query, error) {
	sch, err := RandomSchema(rng, r, a)
	if err != nil {
		return nil, err
	}
	eqs, err := RandomEqualities(rng, sch, k)
	if err != nil {
		return nil, err
	}
	sm := NewSampler(rng, dist, m)
	return &core.Query{
		Relations:  sch.Populate(rng, n, sm),
		Equalities: eqs,
	}, nil
}

// ChainQuery builds the query of Example 6: relations R1(A,B), …, Rn(A,B)
// with the chain of equalities Ri.B = Ri+1.A, each with tuples drawn from
// [1, m]. The flat result can reach |D|^Θ(n) tuples while s(Qn) = Θ(log n).
// Attributes are named the way a database qualifies them ("R1.A"), so the
// same query runs below the API and, loaded into a database, through it.
func ChainQuery(rng *rand.Rand, n, tuples, m int) *core.Query {
	q := &core.Query{}
	sm := NewSampler(rng, Uniform, m)
	attr := func(i int, col string) relation.Attribute {
		return relation.Attribute(fmt.Sprintf("R%d.%s", i, col))
	}
	for i := 1; i <= n; i++ {
		r := relation.New(fmt.Sprintf("R%d", i), relation.Schema{attr(i, "A"), attr(i, "B")})
		for j := 0; j < tuples; j++ {
			r.Append(sm.Draw(rng), sm.Draw(rng))
		}
		r.Dedup()
		q.Relations = append(q.Relations, r)
	}
	for i := 1; i < n; i++ {
		q.Equalities = append(q.Equalities, core.Equality{A: attr(i, "B"), B: attr(i+1, "A")})
	}
	return q
}

// RetailerItems is the item domain [1, RetailerItems] of the retailer
// workload, for callers that bind item parameters or insert further orders.
const RetailerItems = 50

// Retailer builds the scaled retailer workload, the shape of the paper's
// dispatching example: Orders(oid, item) ⋈item Stock(location, item)
// ⋈location Disp(dispatcher, location) with heavy many-to-many links —
// result tuples grow cubically with the scale while the factorised size
// stays quasi-linear. Attributes are qualified like ChainQuery's. Tuples
// stay in generation order, duplicates included: a database loaded from
// them sees the insert sequence the seed fixes, and set semantics are the
// consumer's to establish (the database dedups; below the API, call Dedup).
func Retailer(rng *rand.Rand, scale int) *core.Query {
	const (
		items       = RetailerItems
		locations   = 40
		dispatchers = 120
	)
	draw := func(n int) relation.Value { return relation.Value(rng.Intn(n) + 1) }
	orders := relation.New("Orders", relation.Schema{"Orders.oid", "Orders.item"})
	for i := 0; i < 500*scale; i++ {
		orders.Append(relation.Value(i+1), draw(items))
	}
	stock := relation.New("Stock", relation.Schema{"Stock.location", "Stock.item"})
	for i := 0; i < 200*scale; i++ {
		stock.Append(draw(locations), draw(items))
	}
	disp := relation.New("Disp", relation.Schema{"Disp.dispatcher", "Disp.location"})
	for i := 0; i < 100*scale; i++ {
		disp.Append(draw(dispatchers), draw(locations))
	}
	return &core.Query{
		Relations: []*relation.Relation{orders, stock, disp},
		Equalities: []core.Equality{
			{A: "Orders.item", B: "Stock.item"},
			{A: "Stock.location", B: "Disp.location"},
		},
	}
}

// Grocery returns the example database of Figure 1 together with its
// dictionary. Relation attribute names are prefixed by the relation to keep
// schemas disjoint (o_, s_, d_, p_, v_).
func Grocery() (rels []*relation.Relation, dict *relation.Dict) {
	dict = relation.NewDict()
	e := dict.Encode
	orders := relation.New("Orders", relation.Schema{"o_oid", "o_item"})
	for _, r := range [][2]string{{"01", "Milk"}, {"01", "Cheese"}, {"02", "Melon"}, {"03", "Cheese"}, {"03", "Melon"}} {
		orders.Append(e(r[0]), e(r[1]))
	}
	store := relation.New("Store", relation.Schema{"s_location", "s_item"})
	for _, r := range [][2]string{{"Istanbul", "Milk"}, {"Istanbul", "Cheese"}, {"Istanbul", "Melon"},
		{"Izmir", "Milk"}, {"Antalya", "Milk"}, {"Antalya", "Cheese"}} {
		store.Append(e(r[0]), e(r[1]))
	}
	disp := relation.New("Disp", relation.Schema{"d_dispatcher", "d_location"})
	for _, r := range [][2]string{{"Adnan", "Istanbul"}, {"Adnan", "Izmir"}, {"Yasemin", "Istanbul"}, {"Volkan", "Antalya"}} {
		disp.Append(e(r[0]), e(r[1]))
	}
	produce := relation.New("Produce", relation.Schema{"p_supplier", "p_item"})
	for _, r := range [][2]string{{"Guney", "Milk"}, {"Guney", "Cheese"}, {"Dikici", "Milk"}, {"Byzantium", "Melon"}} {
		produce.Append(e(r[0]), e(r[1]))
	}
	serve := relation.New("Serve", relation.Schema{"v_supplier", "v_location"})
	for _, r := range [][2]string{{"Guney", "Antalya"}, {"Dikici", "Istanbul"}, {"Dikici", "Izmir"},
		{"Dikici", "Antalya"}, {"Byzantium", "Istanbul"}} {
		serve.Append(e(r[0]), e(r[1]))
	}
	return []*relation.Relation{orders, store, disp, produce, serve}, dict
}

// CombinatorialQuery builds the right-column dataset of Figure 7: two
// binary relations of 8² = 64 tuples and two ternary relations of 8³ = 512
// tuples, values drawn from [1, 20], joined by k equalities.
func CombinatorialQuery(rng *rand.Rand, k int, dist Distribution) (*core.Query, error) {
	s := &Schema{
		Relations: []relation.Schema{
			{"X1", "X2"},
			{"X3", "X4"},
			{"X5", "X6", "X7"},
			{"X8", "X9", "X10"},
		},
		Names: []string{"B1", "B2", "T1", "T2"},
	}
	sm := NewSampler(rng, dist, 20)
	rels := make([]*relation.Relation, 4)
	sizes := []int{64, 64, 512, 512}
	for i, sch := range s.Relations {
		r := relation.New(s.Names[i], sch)
		for j := 0; j < sizes[i]; j++ {
			t := make(relation.Tuple, len(sch))
			for c := range t {
				t[c] = sm.Draw(rng)
			}
			r.AppendTuple(t)
		}
		r.Dedup()
		rels[i] = r
	}
	eqs, err := RandomEqualities(rng, s, k)
	if err != nil {
		return nil, err
	}
	return &core.Query{Relations: rels, Equalities: eqs}, nil
}
