package main

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/fplan"
	"repro/internal/rdb"
	"repro/internal/relation"
)

// oracle evaluates the benchmark's statements the slow, obviously right way:
// internal/rdb's flat sort-merge join over the generated rows, then plain Go
// projection, sorting and grouping over the decoded tuples. It never touches
// a factorised representation.
type oracle struct {
	dict *relation.Dict
	rels map[string]*relation.Relation
}

func newOracle(ds *dataset, dict *relation.Dict) *oracle {
	o := &oracle{dict: dict, rels: map[string]*relation.Relation{}}
	for _, t := range ds.tables {
		o.rels[t.name] = t.flat(dict)
	}
	return o
}

// The two joins of the paper's Example 2.
var (
	q1From = []string{"Orders", "Stock", "Disp"}
	q1Eqs  = [][2]string{{"Orders.item", "Stock.item"}, {"Stock.location", "Disp.location"}}
	q2From = []string{"Produce", "Serve"}
	q2Eqs  = [][2]string{{"Produce.supplier", "Serve.supplier"}}
)

// flatRows is a flat relation: named columns over engine values. Integer
// columns hold the integers themselves, string columns dictionary codes.
type flatRows struct {
	cols   []string
	tuples []relation.Tuple
	// strs is the dictionary's code table; a value below its length is a
	// string, as everywhere in the engine.
	strs []string
}

// join materialises the flat equi-join of the named relations under integer
// selections.
func (o *oracle) join(from []string, eqs [][2]string, sels ...core.ConstSel) (*flatRows, error) {
	q := &core.Query{Selections: sels}
	for _, name := range from {
		q.Relations = append(q.Relations, o.rels[name])
	}
	for _, e := range eqs {
		q.Equalities = append(q.Equalities, core.Equality{A: relation.Attribute(e[0]), B: relation.Attribute(e[1])})
	}
	res, err := rdb.Evaluate(q, rdb.Options{Materialize: true})
	if err != nil {
		return nil, fmt.Errorf("oracle join of %v: %w", from, err)
	}
	out := &flatRows{tuples: res.Relation.Tuples, strs: o.dict.Snapshot()}
	for _, a := range res.Relation.Schema {
		out.cols = append(out.cols, string(a))
	}
	return out, nil
}

func intSel(attr string, op fplan.Cmp, v int64) core.ConstSel {
	return core.ConstSel{A: relation.Attribute(attr), Op: op, C: relation.Value(v)}
}

func (f *flatRows) col(name string) int {
	for i, c := range f.cols {
		if c == name {
			return i
		}
	}
	panic("oracle: no column " + name)
}

// render decodes one value the way the engine renders it.
func (f *flatRows) render(v relation.Value) string {
	if v >= 0 && int(v) < len(f.strs) {
		return f.strs[v]
	}
	return strconv.FormatInt(int64(v), 10)
}

// rows decodes the relation into the string rows a reply carries.
func (f *flatRows) rows() [][]string {
	out := make([][]string, len(f.tuples))
	for i, t := range f.tuples {
		row := make([]string, len(t))
		for j, v := range t {
			row[j] = f.render(v)
		}
		out[i] = row
	}
	return out
}

// project keeps the named columns and removes duplicate rows.
func (f *flatRows) project(cols ...string) *flatRows {
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = f.col(c)
	}
	out := &flatRows{cols: cols, strs: f.strs, tuples: make([]relation.Tuple, len(f.tuples))}
	for i, t := range f.tuples {
		nt := make(relation.Tuple, len(idx))
		for k, j := range idx {
			nt[k] = t[j]
		}
		out.tuples[i] = nt
	}
	sort.Slice(out.tuples, func(a, b int) bool { return out.tuples[a].Compare(out.tuples[b]) < 0 })
	keep := out.tuples[:0]
	for i, t := range out.tuples {
		if i == 0 || t.Compare(out.tuples[i-1]) != 0 {
			keep = append(keep, t)
		}
	}
	out.tuples = keep
	return out
}

// sortKey is one ORDER BY key of the oracle.
type sortKey struct {
	col  string
	desc bool
}

// sortBy orders the rows: strings compare lexicographically, integers
// numerically, as the engine's decoded order does. The benchmark never mixes
// the two in one column.
func (f *flatRows) sortBy(keys ...sortKey) {
	idx := make([]int, len(keys))
	for i, k := range keys {
		idx[i] = f.col(k.col)
	}
	sort.SliceStable(f.tuples, func(a, b int) bool {
		for i, k := range keys {
			x, y := f.tuples[a][idx[i]], f.tuples[b][idx[i]]
			if x == y {
				continue
			}
			less := x < y
			if x >= 0 && int(x) < len(f.strs) && y >= 0 && int(y) < len(f.strs) {
				less = f.strs[x] < f.strs[y]
			}
			return less != k.desc
		}
		return false
	})
}

// slice applies OFFSET and LIMIT.
func (f *flatRows) slice(offset, limit int) {
	if offset > len(f.tuples) {
		offset = len(f.tuples)
	}
	f.tuples = f.tuples[offset:]
	if limit < len(f.tuples) {
		f.tuples = f.tuples[:limit]
	}
}

// countMax groups by one column and folds COUNT(*) and MAX(maxCol).
func (f *flatRows) countMax(groupCol, maxCol string) map[relation.Value][]int64 {
	g, m := f.col(groupCol), f.col(maxCol)
	out := map[relation.Value][]int64{}
	for _, t := range f.tuples {
		if a, seen := out[t[g]]; seen {
			a[0]++
			a[1] = max(a[1], int64(t[m]))
		} else {
			out[t[g]] = []int64{1, int64(t[m])}
		}
	}
	return out
}

// aggRows renders groups as the engine's aggregate rows: the decoded key,
// then the aggregate values in decimal.
func (o *oracle) aggRows(groups map[relation.Value][]int64) [][]string {
	var out [][]string
	for k, vals := range groups {
		row := []string{o.dict.Decode(k)}
		for _, v := range vals {
			row = append(row, strconv.FormatInt(v, 10))
		}
		out = append(out, row)
	}
	return out
}

// countDistinct groups by one column and folds COUNT(*) and
// COUNT(DISTINCT distinctCol).
func (f *flatRows) countDistinct(groupCol, distinctCol string) map[relation.Value][]int64 {
	g, d := f.col(groupCol), f.col(distinctCol)
	count := map[relation.Value]int64{}
	distinct := map[[2]relation.Value]bool{}
	nDistinct := map[relation.Value]int64{}
	for _, t := range f.tuples {
		count[t[g]]++
		if k := [2]relation.Value{t[g], t[d]}; !distinct[k] {
			distinct[k] = true
			nDistinct[t[g]]++
		}
	}
	out := map[relation.Value][]int64{}
	for k, n := range count {
		out[k] = []int64{n, nDistinct[k]}
	}
	return out
}

// expected is what a reply must hash to: a row count and a hash over the
// rows in canonical column order — chained when the statement has ORDER BY,
// a commutative sum when the engine may return rows in any order.
type expected struct {
	cols    []string
	ordered bool
	n       int
	hash    uint64
}

// expect records what a reply with the given columns and rows hashes to.
func expect(cols []string, rows [][]string, ordered bool) *expected {
	e := &expected{cols: cols, ordered: ordered}
	perm := make([]int, len(cols))
	for i := range perm {
		perm[i] = i
	}
	e.n, e.hash = hashRows(rows, perm, ordered)
	return e
}

// check hashes a reply (schema in the engine's column order) and compares.
func (e *expected) check(schema []string, rows [][]string) error {
	if len(schema) != len(e.cols) {
		return fmt.Errorf("reply has columns %v, want %v", schema, e.cols)
	}
	perm := make([]int, len(e.cols))
	for i, c := range e.cols {
		perm[i] = -1
		for j, s := range schema {
			if s == c {
				perm[i] = j
			}
		}
		if perm[i] < 0 {
			return fmt.Errorf("reply has columns %v, want %v", schema, e.cols)
		}
	}
	n, h := hashRows(rows, perm, e.ordered)
	if n != e.n || h != e.hash {
		return fmt.Errorf("reply of %d rows hashes to %016x, want %d rows and %016x", n, h, e.n, e.hash)
	}
	return nil
}

// hashRows hashes rows with FNV-1a per row over the columns perm selects.
func hashRows(rows [][]string, perm []int, ordered bool) (int, uint64) {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	var acc uint64
	for _, r := range rows {
		h := uint64(offset)
		for _, j := range perm {
			s := r[j]
			for k := 0; k < len(s); k++ {
				h = (h ^ uint64(s[k])) * prime
			}
			h = (h ^ 0xff) * prime
		}
		if ordered {
			acc = acc*prime + h
		} else {
			// Scramble before summing so that swapping values between rows
			// cannot cancel out.
			h ^= h >> 32
			acc += h * 0x9e3779b97f4a7c15
		}
	}
	return len(rows), acc
}
