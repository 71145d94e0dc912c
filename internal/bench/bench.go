// Package bench is the experiment table behind cmd/fdbench: the figures of
// the paper's evaluation (Section 5) and their extension of the FDB-vs-flat
// comparison to aggregation, top-k and set algebra. One
// entry of Experiments is one experiment — its grid and its bars are bound
// in the entry, its output is a Table, and a failed parity precheck or a
// missed bar is the error Run returns. fdbench prints the tables, CI runs
// every entry once, and this package's smoke test iterates the same table,
// so adding an experiment is adding an entry.
//
// The repo's performance gate is benchmark/ (BENCHMARK.json), not this
// package: the numbers printed here are the paper's curves, checked for
// parity and direction, never compared across commits.
package bench

import (
	"fmt"
	"strings"
	"time"

	fdb "repro"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/wire"
)

// Config is what one run of an experiment may vary.
type Config struct {
	Seed    int64
	Runs    int           // repetitions per grid point (>= 1); timings are means over them
	Timeout time.Duration // budget per query of the flat baselines (0: none)
	smoke   bool          // first point of every sweep only: what the smoke test runs
}

// Table is an experiment's output.
type Table struct {
	Header []string   // printed as "# " + line; the last line names the columns
	Rows   [][]string // one cell per column
}

// add appends one row: the formatted line split at white space.
func (t *Table) add(format string, args ...interface{}) {
	t.Rows = append(t.Rows, strings.Fields(fmt.Sprintf(format, args...)))
}

// Experiment is one entry of the table. Entries sharing an ID are parts of
// one experiment and run together.
type Experiment struct {
	ID    int
	Title string
	Run   func(Config) (Table, error)
}

// Experiments is the table: the paper's figures (1–4) and comparisons of
// factorised evaluation against flat baselines (6, 9, 14). IDs are never
// reused, so references to an experiment stay valid. How the engine compares
// with itself is benchmark/'s job, not this table's.
var Experiments = []Experiment{
	{1, "Figure 5: f-tree optimisation on flat data", func(c Config) (Table, error) {
		return optimiseFlat(c, seq(1, 8), seq(1, 9), 40)
	}},
	{2, "Figures 6+9: full-search vs greedy f-plan optimiser", func(c Config) (Table, error) {
		return planSearch(c, 4, 10, seq(1, 8), seq(1, 6))
	}},
	{3, "Figure 7: evaluation on flat data, FDB vs RDB", func(c Config) (Table, error) {
		return flatEval(c, []int{300, 900, 2700}, seq(2, 4))
	}},
	{3, "Figure 7 (right): the combinatorial dataset", func(c Config) (Table, error) {
		return combinatorialEval(c, seq(1, 8))
	}},
	{4, "Figure 8: evaluation on factorised data", func(c Config) (Table, error) {
		return factorisedEval(c, seq(1, 6), seq(1, 3))
	}},
	{6, "factorised aggregation vs enumerate-then-fold", func(c Config) (Table, error) {
		return aggregation(c, []int{1, 2, 4, 8}, []int{2, 4, 6, 8}, 5_000_000)
	}},
	{9, "ordered top-k (ORDER BY + LIMIT) vs flat sort-then-cut", func(c Config) (Table, error) {
		return topK(c, []int{2, 4, 8}, []int{4, 5, 6}, 10)
	}},
	{14, "native set algebra (UNION/EXCEPT/INTERSECT) vs flat hash baseline", func(c Config) (Table, error) {
		return setAlgebra(c, []int{1, 4}, 1.0)
	}},
}

// seq returns lo, lo+1, …, hi.
func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}

// trim cuts a sweep to its first point under smoke.
func trim[T any](c Config, points []T) []T {
	if c.smoke && len(points) > 1 {
		return points[:1]
	}
	return points
}

// mean calls measure runs times and returns the element-wise mean of the
// matrices it returned: one row of metrics per output row.
func mean(runs int, measure func() ([][]float64, error)) ([][]float64, error) {
	var sum [][]float64
	for i := 0; i < runs; i++ {
		m, err := measure()
		if err != nil {
			return nil, err
		}
		if sum == nil {
			sum = m
			continue
		}
		for r := range m {
			for c := range m[r] {
				sum[r][c] += m[r][c]
			}
		}
	}
	for _, row := range sum {
		for c := range row {
			row[c] /= float64(runs)
		}
	}
	return sum, nil
}

// one lifts a single-row measurement into mean's shape.
func one(row []float64, err error) ([][]float64, error) { return [][]float64{row}, err }

// ratio is a/b, 0 when the denominator was not measured.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

func ms(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}

// openDB loads q's relations into a fresh database and returns it with the
// clauses of q's join, so an experiment runs the workload internal/gen
// generated through the public API.
func openDB(q *core.Query) (*fdb.DB, []fdb.Clause, error) {
	db := fdb.New()
	if err := wire.Seed(db, q.Relations); err != nil {
		return nil, nil, err
	}
	from := make([]string, len(q.Relations))
	for i, r := range q.Relations {
		from[i] = r.Name
	}
	clauses := []fdb.Clause{fdb.From(from...)}
	for _, e := range q.Equalities {
		clauses = append(clauses, fdb.Eq(string(e.A), string(e.B)))
	}
	return db, clauses, nil
}

// with returns clauses followed by more, never aliasing clauses' backing
// array.
func with(clauses []fdb.Clause, more ...fdb.Clause) []fdb.Clause {
	return append(clauses[:len(clauses):len(clauses)], more...)
}

func cloneRels(rels []*relation.Relation) []*relation.Relation {
	out := make([]*relation.Relation, len(rels))
	for i, r := range rels {
		out[i] = r.Clone()
	}
	return out
}
