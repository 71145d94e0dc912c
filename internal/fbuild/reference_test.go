package fbuild

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/frep"
	"repro/internal/ftree"
	"repro/internal/gen"
	"repro/internal/opt"
	"repro/internal/relation"
)

// refBuilder is the leapfrog build as it was before the builder kept
// per-node scratch frames and routed by pre-order index: it allocates its
// scratch per union and per value, routes through node-keyed maps and
// seeks with sort.Search. It is the differential reference of the build.
// Its one change from that builder: it advances past a value v with an
// upper-bound seek (seekPast) instead of a seek to v+1, which wraps at
// MaxInt64 and never returns.
type refBuilder struct {
	tree    *ftree.T
	in, out map[*ftree.Node]int
	ctx     context.Context
	tick    uint
	err     error
	eb      *frep.EncBuilder
	marks   [][]int32
}

// refBuildEnc builds the join of rels over t with the reference builder.
func refBuildEnc(rels []*relation.Relation, t *ftree.T) (*frep.Enc, error) {
	states, err := newBuilder(context.Background(), t).newStates(rels)
	if err != nil {
		return nil, err
	}
	b := &refBuilder{tree: t, in: map[*ftree.Node]int{}, out: map[*ftree.Node]int{},
		ctx: context.Background(), eb: frep.NewEncBuilder(t)}
	ctr := 0
	var number func(n *ftree.Node)
	number = func(n *ftree.Node) {
		b.in[n] = ctr
		ctr++
		for _, c := range n.Children {
			number(c)
		}
		b.out[n] = ctr
	}
	for _, r := range t.Roots {
		number(r)
	}
	empty := false
	for _, root := range t.Roots {
		var mine []*relState
		for _, st := range states {
			if len(st.nodes) > 0 && b.inSubtree(st.nodes[0], root) {
				mine = append(mine, st)
			}
		}
		ri := b.eb.Idx(root)
		if b.buildUnionEnc(root, ri, mine, 0) == 0 {
			empty = true
		}
		b.eb.CloseUnion(ri)
	}
	if empty {
		return frep.NewEmptyEnc(t), nil
	}
	return b.eb.Finish(), nil
}

func (b *refBuilder) checkpoint() bool {
	if b.err != nil {
		return true
	}
	b.tick++
	if b.tick%checkTick == 0 {
		if err := b.ctx.Err(); err != nil {
			b.err = err
			return true
		}
	}
	return false
}

func (b *refBuilder) markAt(d int) []int32 {
	for len(b.marks) <= d {
		b.marks = append(b.marks, nil)
	}
	return b.marks[d][:0]
}

func (b *refBuilder) inSubtree(x, root *ftree.Node) bool {
	return b.in[root] <= b.in[x] && b.in[x] < b.out[root]
}

// seek returns the first index in [lo, hi) whose value in column col is at
// least v; seekPast the first whose value exceeds v.
func (b *refBuilder) seek(st *relState, col int, v relation.Value, lo, hi int) int {
	return lo + sort.Search(hi-lo, func(i int) bool {
		return st.rel.Tuples[lo+i][col] >= v
	})
}

func (b *refBuilder) seekPast(st *relState, col int, v relation.Value, lo, hi int) int {
	return lo + sort.Search(hi-lo, func(i int) bool {
		return st.rel.Tuples[lo+i][col] > v
	})
}

func (b *refBuilder) buildUnionEnc(node *ftree.Node, ni int, states []*relState, depth int) int {
	var active []*relState
	for _, st := range states {
		if st.next < len(st.nodes) && st.nodes[st.next] == node {
			active = append(active, st)
		}
	}
	if len(active) == 0 {
		// No relation constrains this class: impossible for query-derived
		// trees (every class stems from some relation), so treat as empty.
		return 0
	}
	count := 0
	// Leapfrog over the active relations' first class column.
	cur := make([]int, len(active)) // scan position within [lo,hi)
	for i, st := range active {
		cur[i] = st.lo
	}
	for {
		if b.checkpoint() {
			return count
		}
		// Propose the maximum of the current values; any relation exhausted
		// ends the union.
		var v relation.Value
		for i, st := range active {
			if cur[i] >= st.hi {
				return count
			}
			if val := st.rel.Tuples[cur[i]][st.cols[st.next][0]]; i == 0 || val > v {
				v = val
			}
		}
		// Seek all relations to >= v; retry while they disagree.
		agreed := true
		for i, st := range active {
			col := st.cols[st.next][0]
			cur[i] = b.seek(st, col, v, cur[i], st.hi)
			if cur[i] >= st.hi {
				return count
			}
			if st.rel.Tuples[cur[i]][col] != v {
				agreed = false
			}
		}
		if !agreed {
			continue
		}
		// Candidate v: narrow every active relation to its v-range,
		// including equality across extra same-class columns.
		type saved struct{ lo, hi, next int }
		save := make([]saved, len(active))
		ok := true
		for i, st := range active {
			save[i] = saved{st.lo, st.hi, st.next}
			cols := st.cols[st.next]
			lo := cur[i]
			hi := b.seekPast(st, cols[0], v, lo, st.hi)
			// Extra columns of the same class must also equal v; the range
			// [lo,hi) is sorted by them in order.
			for _, c := range cols[1:] {
				lo = b.seek(st, c, v, lo, hi)
				hi = b.seekPast(st, c, v, lo, hi)
			}
			if lo >= hi {
				ok = false
			}
			st.lo, st.hi = lo, hi
			st.next++
		}
		if ok {
			mark := b.markAt(depth)
			mark = b.eb.Mark(ni, mark)
			b.marks[depth] = mark
			b.eb.Append(ni, v)
			alive := true
			kids := b.eb.Kids(ni)
			for ci, child := range node.Children {
				var mine []*relState
				for _, st := range states {
					if st.next < len(st.nodes) && b.inSubtree(st.nodes[st.next], child) {
						mine = append(mine, st)
					}
				}
				if b.buildUnionEnc(child, kids[ci], mine, depth+1) == 0 {
					alive = false
					break
				}
				b.eb.CloseUnion(kids[ci])
			}
			if alive {
				count++
			} else {
				b.eb.Rollback(ni, b.marks[depth])
			}
		}
		// Restore and advance past v.
		for i, st := range active {
			st.lo, st.hi, st.next = save[i].lo, save[i].hi, save[i].next
			cur[i] = b.seekPast(st, st.cols[st.next][0], v, cur[i], st.hi)
		}
	}
}

// stretchExtremes maps the smallest value of every relation in rels to
// MinInt64 and the largest to MaxInt64. The mapping is monotone and
// injective, so joins and sort orders keep their shape while the builds
// meet both ends of the value domain.
func stretchExtremes(rels []*relation.Relation) {
	lo, hi := relation.Value(math.MaxInt64), relation.Value(math.MinInt64)
	for _, r := range rels {
		for _, tp := range r.Tuples {
			for _, v := range tp {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
		}
	}
	for _, r := range rels {
		for _, tp := range r.Tuples {
			for c, v := range tp {
				switch v {
				case lo:
					tp[c] = math.MinInt64
				case hi:
					tp[c] = math.MaxInt64
				}
			}
		}
	}
}

// TestBuildMatchesReference: the serial build and the parallel build at
// P = 2 and 3 are Enc.Equal to the reference builder over random queries,
// with and without values at both ends of the domain. Some of the queries
// merge two attributes of one relation into a class, which the builds
// evaluate as a selection over the extra same-class columns. A second
// series forces trees that memoise (see memoise) and requires memo hits and
// records dropped by rollbacks, so copied spans are checked too.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	within := 0
	for trial := 0; trial < 120; trial++ {
		r := 1 + rng.Intn(3)
		a := r + rng.Intn(4)
		k := rng.Intn(min(a-1, 3) + 1)
		dist := gen.Uniform
		if trial%3 == 2 {
			dist = gen.Zipf
		}
		q, err := gen.RandomQuery(rng, r, a, 1+rng.Intn(60), k, dist, 6)
		if err != nil {
			t.Fatal(err)
		}
		tr, _, err := opt.OptimalFTree(q.Classes(), q.Schemas(), opt.TreeSearchOptions{})
		if err != nil {
			continue
		}
		if trial%2 == 1 {
			stretchExtremes(q.Relations)
		}
		want, err := refBuildEnc(cloneRels(q.Relations), tr)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		states, err := newBuilder(context.Background(), tr).newStates(cloneRels(q.Relations))
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range states {
			for _, cols := range st.cols {
				if len(cols) > 1 {
					within++
				}
			}
		}
		for _, p := range []int{1, 2, 3} {
			got, err := BuildEncParallel(cloneRels(q.Relations), tr, p)
			if err != nil {
				t.Fatalf("trial %d (p=%d): %v", trial, p, err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d (p=%d): build differs from the reference\ntree:\n%s", trial, p, tr)
			}
		}
	}
	if within == 0 {
		t.Fatal("no trial merged two attributes of one relation into a class")
	}

	// Order-forced trees over inputs with one equality-filtered column, and
	// item_point's tree oid → location → {dispatcher, item}: ancestors that
	// bind no keyed state make memoised nodes hit, and entries emptied
	// below a memoised node make rollbacks drop its records.
	memo := countMemo(t)
	for trial := 0; trial < 300; trial++ {
		var q *core.Query
		var tr *ftree.T
		if trial%4 == 3 {
			q, tr = pointQuery(rng, trial%8 == 7)
		} else {
			r := 2 + rng.Intn(2)
			var err error
			q, err = gen.RandomQuery(rng, r, r+1+rng.Intn(4), 1+rng.Intn(60), rng.Intn(3), gen.Uniform, 4)
			if err != nil {
				t.Fatal(err)
			}
			classes := q.Classes()
			chain := rng.Perm(len(classes))[:1+rng.Intn(min(3, len(classes)))]
			if tr, _, err = opt.GreedyFTreeOrdered(classes, q.Schemas(), chain); err != nil {
				continue
			}
			filterEq(rng, q.Relations[rng.Intn(len(q.Relations))], -1)
		}
		want, err := refBuildEnc(cloneRels(q.Relations), tr)
		if err != nil {
			t.Fatalf("forced trial %d: reference: %v", trial, err)
		}
		for _, p := range []int{1, 2, 3} {
			got, err := BuildEncParallel(cloneRels(q.Relations), tr, p)
			if err != nil {
				t.Fatalf("forced trial %d (p=%d): %v", trial, p, err)
			}
			if !got.Equal(want) {
				t.Fatalf("forced trial %d (p=%d): build differs from the reference\ntree:\n%s", trial, p, tr)
			}
		}
	}
	t.Logf("memo: %d hits copied %d entries; rollbacks dropped %d records",
		memo.hits.Load(), memo.copied.Load(), memo.dropped.Load())
	if memo.hits.Load() == 0 || memo.dropped.Load() == 0 {
		t.Fatalf("memo hits %d and dropped records %d: both must happen", memo.hits.Load(), memo.dropped.Load())
	}

	// Leaves bound by one input are gathered (see gather). Bag inputs
	// repeat tuples, so a gathered range repeats values; a leaf class
	// holding two columns of one relation takes the leapfrog beside a
	// gathered sibling; and on item_point's tree the gathered dispatcher
	// leaf is built before its item sibling, whose union empties where a
	// location stocks no ordered item, so rollbacks of the memoised
	// location truncate gathered entries.
	rng = rand.New(rand.NewSource(7))
	for trial := 0; trial < 150; trial++ {
		var q *core.Query
		var tr *ftree.T
		switch trial % 3 {
		case 0:
			r := 1 + rng.Intn(3)
			a := r + 1 + rng.Intn(3)
			var err error
			q, err = gen.RandomQuery(rng, r, a, 1+rng.Intn(40), rng.Intn(min(a-1, 3)+1), gen.Uniform, 4)
			if err != nil {
				t.Fatal(err)
			}
			if tr, _, err = opt.OptimalFTree(q.Classes(), q.Schemas(), opt.TreeSearchOptions{}); err != nil {
				continue
			}
		case 1:
			q, tr = twoColLeafQuery(rng)
		case 2:
			q, tr = pointQuery(rng, trial%6 == 5)
		}
		for _, r := range q.Relations {
			repeatTuples(rng, r)
		}
		want, err := refBuildEnc(cloneRels(q.Relations), tr)
		if err != nil {
			t.Fatalf("gather trial %d: reference: %v", trial, err)
		}
		for _, p := range []int{1, 2, 3} {
			got, err := BuildEncParallel(cloneRels(q.Relations), tr, p)
			if err != nil {
				t.Fatalf("gather trial %d (p=%d): %v", trial, p, err)
			}
			if !got.Equal(want) {
				t.Fatalf("gather trial %d (p=%d): build differs from the reference\ntree:\n%s", trial, p, tr)
			}
		}
	}
}

// repeatTuples makes r a bag: it appends copies of random tuples of r.
func repeatTuples(rng *rand.Rand, r *relation.Relation) {
	for n := len(r.Tuples); n > 0 && rng.Intn(4) > 0; {
		r.AppendTuple(slices.Clone(r.Tuples[rng.Intn(n)]))
	}
}

// twoColLeafQuery is R(r_a, r_b, r_c) ⋈ S(s_a, s_d) over the tree
// a → {{r_b, r_c}, s_d}: R's leaf class holds two of its columns, a
// selection b = c that the leapfrog evaluates, beside S's gathered leaf.
func twoColLeafQuery(rng *rand.Rand) (*core.Query, *ftree.T) {
	r := relation.New("R", relation.Schema{"r_a", "r_b", "r_c"})
	s := relation.New("S", relation.Schema{"s_a", "s_d"})
	v := func(n int) relation.Value { return relation.Value(rng.Intn(n)) }
	for i := 0; i < 1+rng.Intn(40); i++ {
		r.Append(v(5), v(3), v(3))
		s.Append(v(5), v(8))
	}
	a := ftree.NewNode("r_a", "s_a").Add(ftree.NewNode("r_b", "r_c"), ftree.NewNode("s_d"))
	return &core.Query{Relations: []*relation.Relation{r, s}}, ftree.New([]*ftree.Node{a},
		[]relation.AttrSet{relation.NewAttrSet(r.Schema...), relation.NewAttrSet(s.Schema...)})
}

// memoCounts sums the memo counters of every builder, morsel workers
// included.
type memoCounts struct{ hits, copied, dropped atomic.Int64 }

// countMemo points memoStats at fresh counters until the test ends.
func countMemo(t testing.TB) *memoCounts {
	c := &memoCounts{}
	memoStats = func(hits, copied, dropped int) {
		c.hits.Add(int64(hits))
		c.copied.Add(int64(copied))
		c.dropped.Add(int64(dropped))
	}
	t.Cleanup(func() { memoStats = nil })
	return c
}

// filterEq keeps the tuples of r whose column col (a random one if col is
// negative) equals that of a random tuple: the column becomes constant.
func filterEq(rng *rand.Rand, r *relation.Relation, col int) {
	if len(r.Tuples) == 0 {
		return
	}
	if col < 0 {
		col = rng.Intn(len(r.Schema))
	}
	v := r.Tuples[rng.Intn(len(r.Tuples))][col]
	r.Tuples = r.Select(func(tp relation.Tuple) bool { return tp[col] == v }).Tuples
}

// pointQuery is item_point's join over small random data: Orders ⋈ Stock
// ⋈ Disp on the tree oid → location → {dispatcher, item}, with Orders
// filtered to one item. With twoCols, Orders carries a second item column
// in the item class, and only the first one is filtered. Half the time
// Notes(oid, note) ⋈ Tags(note) joins in as oid's second child, so an oid
// whose notes have no tag rolls back the location span it has just
// recorded.
func pointQuery(rng *rand.Rand, twoCols bool) (*core.Query, *ftree.T) {
	ordersSchema := relation.Schema{"o_oid", "o_item"}
	itemClass := []relation.Attribute{"o_item", "s_item"}
	if twoCols {
		ordersSchema = append(ordersSchema, "o_item2")
		itemClass = append(itemClass, "o_item2")
	}
	orders := relation.New("Orders", ordersSchema)
	stock := relation.New("Stock", relation.Schema{"s_location", "s_item"})
	disp := relation.New("Disp", relation.Schema{"d_dispatcher", "d_location"})
	items, locs := 2+rng.Intn(4), 2+rng.Intn(6)
	v := func(n int) relation.Value { return relation.Value(rng.Intn(n)) }
	for i := 0; i < 5+rng.Intn(40); i++ {
		tp := relation.Tuple{v(30), v(items)}
		if twoCols {
			tp = append(tp, v(items))
		}
		orders.AppendTuple(tp)
	}
	for i := 0; i < 2+rng.Intn(20); i++ {
		stock.Append(v(locs), v(items))
		disp.Append(v(12), v(locs))
	}
	rels := []*relation.Relation{orders, stock, disp}
	oid := ftree.NewNode("o_oid").Add(ftree.NewNode("s_location", "d_location").
		Add(ftree.NewNode("d_dispatcher"), ftree.NewNode(itemClass...)))
	if rng.Intn(2) == 0 {
		notes := relation.New("Notes", relation.Schema{"n_oid", "n_note"})
		for i := 0; i < rng.Intn(30); i++ {
			notes.Append(v(30), v(3))
		}
		tags := relation.New("Tags", relation.Schema{"t_note"})
		tags.Append(v(3))
		rels = append(rels, notes, tags)
		oid = ftree.NewNode("o_oid", "n_oid").Add(oid.Children[0], ftree.NewNode("n_note", "t_note"))
	}
	for _, r := range rels {
		r.Dedup()
	}
	filterEq(rng, orders, 1)
	var schemas []relation.AttrSet
	for _, r := range rels {
		schemas = append(schemas, relation.NewAttrSet(r.Schema...))
	}
	return &core.Query{Relations: rels}, ftree.New([]*ftree.Node{oid}, schemas)
}
