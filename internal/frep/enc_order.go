// Order-aware retrieval over encoded f-representations. Result order is a
// structural property of the encoding: every union keeps its values sorted,
// and enumeration is lexicographic over the pre-order node sequence. When an
// ORDER BY prefix coincides with that pre-order prefix, ordered retrieval is
// plain enumeration — no sort, and LIMIT short-circuits after n tuples (true
// top-k over the compressed form). Two refinements keep this structural path
// available beyond native value order:
//
//   - per-union sort permutations: dictionary codes are insertion-ordered, so
//     a string key's lexicographic order is a per-union permutation of the
//     stored order. EncIterator sorts a union's entries when it first seats
//     that union, so a LIMIT pays for the unions it reads, not for the
//     column;
//   - per-node direction: descending keys walk their union (or permutation)
//     backwards, which reverses exactly that digit of the odometer.
//
// ResolveOrder is the one decision whether an ORDER BY streams, and under
// which arrangement of roots and siblings: the planner calls it on the
// planned tree, retrieval on the encoding's tree. When no arrangement
// streams, SortedRows falls back to a bounded size-k heap (or a full sort
// when no limit is given) over the enumeration.
package frep

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/ftree"
	"repro/internal/relation"
)

// OrderKey is one ORDER BY sort key: an attribute and a direction.
type OrderKey struct {
	Attr relation.Attribute
	Desc bool
}

func (k OrderKey) String() string {
	if k.Desc {
		return string(k.Attr) + "-"
	}
	return string(k.Attr) + "+"
}

// ValueLess is a strict weak order on engine values. A nil ValueLess means
// native int64 order — the order unions are stored in. A non-nil comparator
// (a string key's lexicographic order) makes EncIterator sort the key unions
// it seats. Order functions take one comparator per key, nil for a key that
// sorts natively (an integer key), and a nil slice when every key does.
type ValueLess func(a, b relation.Value) bool

// lessAt is key i's comparator in less.
func lessAt(less []ValueLess, i int) ValueLess {
	if less == nil {
		return nil
	}
	return less[i]
}

// TupleIter is a resumable iterator over result tuples. EncIterator, the
// sort-fallback replay and Clip all implement it; the tuple returned by Next
// may be reused between calls — clone to retain.
type TupleIter interface {
	Next() (relation.Tuple, bool)
	Schema() relation.Schema
	Reset()
}

// EncOrder is a resolved order plan for one f-tree, and so for every Enc
// over it: the ORDER BY keys were matched against the pre-order node
// sequence, so the first Prefix nodes stream in key order (per-node
// direction and comparator) and every deeper node streams natively. It
// holds no data-sized state: the iterator puts each covered union in key
// order as it seats it.
type EncOrder struct {
	Prefix int
	desc   []bool      // per covered node
	less   []ValueLess // per covered node; nil: stored order is key order
}

// ResolveOrder is the one order decision: it finds an arrangement of t's
// roots and siblings under which the ORDER BY keys label the front of the
// pre-order walk, and returns that tree with the order plan of every
// encoding over it. Root and sibling order carry no factorisation semantics
// (f-trees are unordered forests), so they are a free lever; the shape is
// never touched, and an encoding over t follows the returned tree with
// Enc.Reindex. t itself is tried first, which keeps the column order of
// results that already stream; then a clone whose roots and child lists
// are stably sorted by the position of the first key naming a non-constant
// node in each subtree, keyless subtrees last. That clone streams whenever
// any arrangement does. ok == false: none does, t comes back as it was, and
// the caller sorts (SortedRows) or plans another shape
// (opt.OptimalFTreeOrdered). t is never mutated.
func ResolveOrder(t *ftree.T, keys []OrderKey, less []ValueLess) (*ftree.T, *EncOrder, bool) {
	if ord, ok := matchOrder(t, keys, less); ok {
		return t, ord, true
	}
	c := t.Clone()
	rank := map[*ftree.Node]int{} // first key position: a node's, then its subtree's
	for i := len(keys) - 1; i >= 0; i-- {
		if n := c.NodeOf(keys[i].Attr); n != nil && !c.AllConst(n) {
			rank[n] = i
		}
	}
	var arrange func(ns []*ftree.Node) int
	arrange = func(ns []*ftree.Node) int {
		first := len(keys)
		for _, n := range ns {
			r, ok := rank[n]
			if !ok {
				r = len(keys)
			}
			rank[n] = min(r, arrange(n.Children))
			first = min(first, rank[n])
		}
		slices.SortStableFunc(ns, func(a, b *ftree.Node) int { return rank[a] - rank[b] })
		return first
	}
	arrange(c.Roots)
	if ord, ok := matchOrder(c, keys, less); ok {
		return c, ord, true
	}
	return t, nil, false
}

// matchOrder matches the keys against t's pre-order node sequence as it
// stands. Walking the keys in order, each key's node must be the next
// pre-order node; keys on constant nodes impose nothing and are skipped,
// as are keys whose node an earlier key already pinned (their digits are
// tie-free), and constant nodes between two keys are covered ascending.
func matchOrder(t *ftree.T, keys []OrderKey, less []ValueLess) (*EncOrder, bool) {
	ti := indexTree(t)
	ord := &EncOrder{}
	cover := func(desc bool, less ValueLess) {
		ord.desc = append(ord.desc, desc)
		ord.less = append(ord.less, less)
		ord.Prefix++
	}
	for i, k := range keys {
		n := t.NodeOf(k.Attr)
		if n == nil || t.Hidden.Has(k.Attr) {
			return nil, false
		}
		ni := ti.idx[n]
		if t.AllConst(n) || ni < ord.Prefix {
			continue
		}
		for ord.Prefix < ni && t.AllConst(ti.nodes[ord.Prefix]) {
			cover(false, nil)
		}
		if ord.Prefix != ni {
			return nil, false
		}
		cover(k.Desc, lessAt(less, i))
	}
	return ord, true
}

// --------------------------------------------------------- offset / limit

// clipIter applies OFFSET/LIMIT to an inner iterator.
type clipIter struct {
	inner   TupleIter
	offset  int
	limit   int // < 0: none
	skipped bool
	emitted int
}

// Clip wraps it so that the first offset tuples are skipped and at most
// limit tuples are returned (limit < 0: no bound). Clip(it, 0, -1) is it.
func Clip(it TupleIter, offset, limit int) TupleIter {
	if offset <= 0 && limit < 0 {
		return it
	}
	return &clipIter{inner: it, offset: offset, limit: limit}
}

func (c *clipIter) Next() (relation.Tuple, bool) {
	if !c.skipped {
		c.skipped = true
		for i := 0; i < c.offset; i++ {
			if _, ok := c.inner.Next(); !ok {
				c.emitted = c.limit
				return nil, false
			}
		}
	}
	if c.limit >= 0 && c.emitted >= c.limit {
		return nil, false
	}
	t, ok := c.inner.Next()
	if ok {
		c.emitted++
	}
	return t, ok
}

func (c *clipIter) Schema() relation.Schema { return c.inner.Schema() }

func (c *clipIter) Reset() {
	c.inner.Reset()
	c.skipped = false
	c.emitted = 0
}

// ------------------------------------------------------------ sort fallback

// TupleCompare returns the three-way comparison ORDER BY retrieval uses: the
// keys in order (honouring direction and each key's comparator), then every
// schema column ascending in native (stored value) order — a deterministic
// total order on distinct tuples, identical to the structural streaming
// order whenever that order exists (non-key digits stream in stored order,
// which for dictionary codes is insertion order, not lexicographic order).
func TupleCompare(schema relation.Schema, keys []OrderKey, less []ValueLess) func(a, b relation.Tuple) int {
	cols := make([]int, len(keys))
	for i, k := range keys {
		cols[i] = schema.Index(k.Attr)
	}
	cmpVal := func(less ValueLess, x, y relation.Value) int {
		if less != nil {
			switch {
			case less(x, y):
				return -1
			case less(y, x):
				return 1
			}
			return 0
		}
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	}
	return func(a, b relation.Tuple) int {
		for i, c := range cols {
			if c < 0 {
				continue
			}
			d := cmpVal(lessAt(less, i), a[c], b[c])
			if d != 0 {
				if keys[i].Desc {
					return -d
				}
				return d
			}
		}
		for i := range schema {
			switch {
			case a[i] < b[i]:
				return -1
			case a[i] > b[i]:
				return 1
			}
		}
		return 0
	}
}

// sortedIter replays materialised, pre-sorted rows.
type sortedIter struct {
	schema relation.Schema
	rows   []relation.Tuple
	i      int
}

func (s *sortedIter) Next() (relation.Tuple, bool) {
	if s.i >= len(s.rows) {
		return nil, false
	}
	t := s.rows[s.i]
	s.i++
	return t, true
}

func (s *sortedIter) Schema() relation.Schema { return s.schema }
func (s *sortedIter) Reset()                  { s.i = 0 }

// ReplayIter returns an iterator over pre-materialised rows — the cursor
// side of the sort fallback, so callers can sort once (SortedRows) and hand
// out fresh iterators over the shared slice.
func ReplayIter(schema relation.Schema, rows []relation.Tuple) TupleIter {
	return &sortedIter{schema: schema, rows: rows}
}

// SortedRows is the fallback for orders incompatible with the f-tree, and
// the retrieval of a bag (the bag union of es): it enumerates every encoding
// of es once, each permuted into the first one's column order, and returns
// the first k tuples under TupleCompare (k < 0: all of them), sorted. With a
// bound it keeps a max-heap of the best k tuples (O(N log k) time, O(k)
// memory — the top-k never materialises the flat result); without one it
// sorts everything. Callers clip an OFFSET off the front (Clip over
// ReplayIter) and so ask for offset+limit rows.
func SortedRows(es []*Enc, keys []OrderKey, less []ValueLess, k int) []relation.Tuple {
	if k == 0 {
		return nil
	}
	schema := es[0].Schema()
	cmp := TupleCompare(schema, keys, less)
	var rows []relation.Tuple
	// Max-heap under cmp when k > 0: the root is the worst of the best k so
	// far.
	siftUp := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if cmp(rows[i], rows[p]) <= 0 {
				return
			}
			rows[i], rows[p] = rows[p], rows[i]
			i = p
		}
	}
	siftDown := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(rows) {
				return
			}
			if c+1 < len(rows) && cmp(rows[c+1], rows[c]) > 0 {
				c++
			}
			if cmp(rows[c], rows[i]) <= 0 {
				return
			}
			rows[i], rows[c] = rows[c], rows[i]
			i = c
		}
	}
	keep := func(t relation.Tuple) bool {
		switch {
		case k < 0:
			rows = append(rows, t.Clone())
		case len(rows) < k:
			rows = append(rows, t.Clone())
			siftUp(len(rows) - 1)
		case cmp(t, rows[0]) < 0:
			rows[0] = t.Clone()
			siftDown(0)
		}
		return true
	}
	for _, e := range es {
		from := e.Schema()
		perm := make([]int, len(schema))
		moved := false
		for i, a := range schema {
			perm[i] = from.Index(a)
			moved = moved || perm[i] != i
		}
		if !moved {
			e.Enumerate(keep)
			continue
		}
		row := make(relation.Tuple, len(perm))
		e.Enumerate(func(t relation.Tuple) bool {
			for i, j := range perm {
				row[i] = t[j]
			}
			return keep(row)
		})
	}
	sort.SliceStable(rows, func(i, j int) bool { return cmp(rows[i], rows[j]) < 0 })
	return rows
}

// ---------------------------------------------------------------- reindex

// Reindex returns a view of e over t, which must be e's tree with root and
// sibling order permuted (same node labels, same parent/child relationships).
// Child unions follow parent entry order — a property independent of sibling
// order — so the arena is shared untouched and only the pre-order column
// table is rebuilt: O(#nodes). Reordering siblings is how an ORDER BY that
// names the right nodes in the wrong pre-order positions becomes structural.
func (e *Enc) Reindex(t *ftree.T) (*Enc, error) {
	ti := indexTree(t)
	if len(ti.nodes) != len(e.ti.nodes) {
		return nil, fmt.Errorf("frep: reindex: %d nodes, expected %d", len(ti.nodes), len(e.ti.nodes))
	}
	cols := make([]nodeCol, len(ti.nodes))
	old := make([]int, len(ti.nodes))
	for i, n := range ti.nodes {
		on := e.Tree.NodeOf(n.Attrs[0])
		if on == nil {
			return nil, fmt.Errorf("frep: reindex: attribute %q not in source tree", n.Attrs[0])
		}
		oi := e.ti.idx[on]
		old[i] = oi
		cols[i] = e.cols[oi]
	}
	for i := range ti.nodes {
		np, op := ti.par[i], e.ti.par[old[i]]
		if (np < 0) != (op < 0) || (np >= 0 && old[np] != op) {
			return nil, fmt.Errorf("frep: reindex: node %v changed parents", ti.nodes[i].Attrs)
		}
	}
	return &Enc{Tree: t, Empty: e.Empty, A: e.A, cols: cols, ti: ti}, nil
}
