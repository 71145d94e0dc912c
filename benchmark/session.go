package main

import (
	"fmt"
	"math/rand"
	"time"

	fdb "repro"
	"repro/internal/fplan"
)

// The session's sizing. The ad-hoc ranges number more than the plan cache's
// 64 entries and are visited round-robin, so every ad-hoc query misses.
const (
	sessionRanges = 96
	// Multiplicities, fixed so that no step exceeds half a session and
	// planning, join, aggregate and top-k each take at least a tenth.
	adhocPairs = 2
	aggRepeats = 4
	topK       = 100
)

// sessionWL is an analyst's session on the paper's Example 2, library only,
// one goroutine: ad-hoc range queries over Q1 that miss the plan cache, the
// join of one of them with the cached Q2, a grouped aggregate, an ordered
// top-k retrieval and an intersection.
type sessionWL struct {
	ds *dataset
	db *fdb.DB

	pairs [][2][2]int64 // the ad-hoc ranges, paired, in the seed's visiting order
	next  int

	// Oracle results.
	q1Count, joinCount map[[2]int64]int64 // by range
	agg, top           *expected

	steps [nSteps]time.Duration
	ops   int

	decomp *sessionDecomp
}

const (
	stepAdhoc = iota
	stepJoin
	stepAgg
	stepTopK
	stepSetOp
	nSteps
)

var stepNames = [nSteps]string{"adhoc", "join", "aggregate", "topk", "setop"}

func (w *sessionWL) callers() int { return 1 }

// rangeWidth is how many consecutive oids an ad-hoc range covers: a fifth of
// the orders, every item equally often.
func (w *sessionWL) rangeWidth() int64 { return int64(100 * w.ds.scale) }

func (w *sessionWL) setup(seed int64, scale int, _ string) error {
	w.ds = generate(seed, scale)
	db, err := w.ds.load()
	if err != nil {
		return err
	}
	w.db = db
	// Range j starts j*step into the orders; a pair is two ranges twelve
	// steps apart, which overlap by about half. Every range is in exactly
	// one pair, and the pairs are visited in the seed's order.
	step := int64(4 * scale)
	rangeAt := func(j int) [2]int64 {
		lo := oidBase + int64(j)*step
		return [2]int64{lo, lo + w.rangeWidth() - 1}
	}
	for _, p := range rand.New(rand.NewSource(seed)).Perm(sessionRanges / 2) {
		j := 24*(p/12) + p%12
		w.pairs = append(w.pairs, [2][2]int64{rangeAt(j), rangeAt(j + 12)})
	}
	// The first execution of every statement; measurement starts over.
	_, err = w.session()
	w.next, w.steps = 0, [nSteps]time.Duration{}
	return err
}

func q1Clauses(extra ...fdb.Clause) []fdb.Clause {
	cs := []fdb.Clause{fdb.From(q1From...)}
	for _, e := range q1Eqs {
		cs = append(cs, fdb.Eq(e[0], e[1]))
	}
	return append(cs, extra...)
}

func adhocClauses(r [2]int64) []fdb.Clause {
	return q1Clauses(fdb.Cmp("Orders.oid", fdb.GE, r[0]), fdb.Cmp("Orders.oid", fdb.LE, r[1]))
}

func (w *sessionWL) adhoc(r [2]int64) (*fdb.Result, error) {
	return w.db.Query(adhocClauses(r)...)
}

func (w *sessionWL) q2() (*fdb.Result, error) {
	return w.db.Query(fdb.From(q2From...), fdb.Eq(q2Eqs[0][0], q2Eqs[0][1]))
}

func aggClauses() []fdb.Clause {
	return q1Clauses(fdb.GroupBy("Disp.dispatcher"), fdb.Agg(fdb.Count, ""), fdb.Agg(fdb.CountDistinct, "Orders.item"))
}

func topKClauses() []fdb.Clause {
	return q1Clauses(
		fdb.Project("Disp.dispatcher", "Orders.oid", "Stock.location"),
		fdb.OrderBy(fdb.Desc("Disp.dispatcher"), fdb.Asc("Orders.oid"), fdb.Asc("Stock.location")),
		fdb.Limit(topK))
}

// sessionOut is what one session produced, kept for verification after the
// latency is stamped.
type sessionOut struct {
	a, b                [2]int64
	aCount, bCount      int64
	joinCount, setCount int64
	aggSchema, topCols  []string
	aggRows, topRows    [][]string
}

// session runs one session's steps on the next ranges, timing each step.
func (w *sessionWL) session() (*sessionOut, error) {
	out := &sessionOut{}
	t := time.Now()
	lap := func(step int) {
		now := time.Now()
		w.steps[step] += now.Sub(t)
		t = now
	}
	var qa, qb *fdb.Result
	var err error
	for i := 0; i < adhocPairs; i++ {
		pair := w.pairs[w.next%len(w.pairs)]
		out.a, out.b = pair[0], pair[1]
		w.next++
		if qa, err = w.adhoc(out.a); err != nil {
			return nil, fmt.Errorf("ad-hoc query %v: %w", out.a, err)
		}
		if qb, err = w.adhoc(out.b); err != nil {
			return nil, fmt.Errorf("ad-hoc query %v: %w", out.b, err)
		}
	}
	out.aCount, out.bCount = qa.Count(), qb.Count()
	lap(stepAdhoc)

	q2, err := w.q2()
	if err != nil {
		return nil, fmt.Errorf("Q2: %w", err)
	}
	joined, err := qa.Join(q2, fdb.Eq("Orders.item", "Produce.item"), fdb.Eq("Stock.location", "Serve.location"))
	if err != nil {
		return nil, fmt.Errorf("Q1 join Q2: %w", err)
	}
	out.joinCount = joined.Count()
	lap(stepJoin)

	for i := 0; i < aggRepeats; i++ {
		ar, err := w.db.QueryAgg(aggClauses()...)
		if err != nil {
			return nil, fmt.Errorf("aggregate: %w", err)
		}
		out.aggSchema, out.aggRows = ar.Schema(), ar.Rows(0)
	}
	lap(stepAgg)

	top, err := w.db.Query(topKClauses()...)
	if err != nil {
		return nil, fmt.Errorf("top-k: %w", err)
	}
	out.topCols, out.topRows = top.Schema(), top.Rows(0)
	lap(stepTopK)

	both, err := qa.Intersect(qb)
	if err != nil {
		return nil, fmt.Errorf("intersect: %w", err)
	}
	out.setCount = both.Count()
	lap(stepSetOp)
	return out, nil
}

func (w *sessionWL) expect() error {
	o := newOracle(w.ds, w.db.Dict())
	f, err := o.join(q1From, q1Eqs)
	if err != nil {
		return err
	}
	w.agg = expect([]string{"Disp.dispatcher", "count", "count_distinct(Orders.item)"},
		o.aggRows(f.countDistinct("Disp.dispatcher", "Orders.item")), false)
	top := f.project("Disp.dispatcher", "Orders.oid", "Stock.location")
	top.sortBy(sortKey{col: "Disp.dispatcher", desc: true}, sortKey{col: "Orders.oid"}, sortKey{col: "Stock.location"})
	top.slice(0, topK)
	w.top = expect(top.cols, top.rows(), true)

	// The flat Q1 ⋈ Q2 runs to millions of tuples, so it is counted, not
	// hashed: per order, the flat oracle's count of what one order of that
	// item joins with; per range, the sum over its orders.
	perOrder := func(from []string, eqs [][2]string) (map[int64]int64, error) {
		out := map[int64]int64{}
		for k := 0; k < nItems; k++ {
			g, err := o.join(from, eqs, intSel("Stock.item", fplan.Eq, itemID(k)))
			if err != nil {
				return nil, err
			}
			out[itemID(k)] = int64(len(g.tuples))
		}
		return out, nil
	}
	rest := [][2]string{q1Eqs[1]}
	q1Per, err := perOrder([]string{"Stock", "Disp"}, rest)
	if err != nil {
		return err
	}
	rest = append(rest, q2Eqs[0], [2]string{"Stock.item", "Produce.item"}, [2]string{"Stock.location", "Serve.location"})
	joinPer, err := perOrder([]string{"Stock", "Disp", "Produce", "Serve"}, rest)
	if err != nil {
		return err
	}
	w.q1Count, w.joinCount = map[[2]int64]int64{}, map[[2]int64]int64{}
	count := func(r [2]int64) {
		for _, t := range o.rels["Orders"].Tuples {
			if oid := int64(t[0]); oid >= r[0] && oid <= r[1] {
				w.q1Count[r] += q1Per[int64(t[1])]
				w.joinCount[r] += joinPer[int64(t[1])]
			}
		}
	}
	for _, p := range w.pairs {
		count(p[0])
		count(p[1])
		count(overlap(p[0], p[1]))
	}
	w.ds.tables = nil
	return nil
}

func overlap(a, b [2]int64) [2]int64 {
	return [2]int64{max(a[0], b[0]), min(a[1], b[1])}
}

func (w *sessionWL) newClient(_ int, _ *rand.Rand) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		t0 := time.Now()
		out, err := w.session()
		lat := time.Since(t0)
		w.ops++
		if err != nil {
			return lat, err
		}
		return lat, w.verify(out)
	}
}

func (w *sessionWL) verify(out *sessionOut) error {
	for _, c := range []struct {
		what      string
		got, want int64
	}{
		{fmt.Sprintf("ad-hoc query %v", out.a), out.aCount, w.q1Count[out.a]},
		{fmt.Sprintf("ad-hoc query %v", out.b), out.bCount, w.q1Count[out.b]},
		{fmt.Sprintf("Q1%v join Q2", out.a), out.joinCount, w.joinCount[out.a]},
		{fmt.Sprintf("intersection of %v and %v", out.a, out.b), out.setCount, w.q1Count[overlap(out.a, out.b)]},
	} {
		if c.got != c.want {
			return fmt.Errorf("%s has %d tuples, want %d", c.what, c.got, c.want)
		}
	}
	if err := w.agg.check(out.aggSchema, out.aggRows); err != nil {
		return fmt.Errorf("aggregate: %w", err)
	}
	if err := w.top.check(out.topCols, out.topRows); err != nil {
		return fmt.Errorf("top-k: %w", err)
	}
	return nil
}

func (w *sessionWL) stepShares() []share {
	var total time.Duration
	for _, d := range w.steps {
		total += d
	}
	if w.ops == 0 || total == 0 {
		return nil
	}
	out := make([]share, nSteps)
	for i, d := range w.steps {
		out[i] = share{
			Step:   stepNames[i],
			MeanMS: float64(d) / float64(time.Millisecond) / float64(w.ops),
			Share:  float64(d) / float64(total),
		}
	}
	return out
}

func (w *sessionWL) finish() error     { return nil }
func (w *sessionWL) database() *fdb.DB { return w.db }
func (w *sessionWL) close()            {}
