// Order-aware retrieval over encoded f-representations. Result order is a
// structural property of the encoding: every union keeps its values sorted,
// and enumeration is lexicographic over the pre-order node sequence. When an
// ORDER BY prefix coincides with that pre-order prefix, ordered retrieval is
// plain enumeration — no sort, and LIMIT short-circuits after n tuples (true
// top-k over the compressed form). Two refinements keep this structural path
// available beyond native value order:
//
//   - per-union sort permutations: dictionary codes are insertion-ordered, so
//     decoded (e.g. lexicographic string) order is a per-union permutation of
//     the stored order. EncIterator sorts a union's entries when it first
//     seats that union, so a LIMIT pays for the unions it reads, not for the
//     column;
//   - per-node direction: descending keys walk their union (or permutation)
//     backwards, which reverses exactly that digit of the odometer.
//
// When the requested order is incompatible with the f-tree even after
// restructuring, SortedRows falls back to a bounded size-k heap (or a full
// sort when no limit is given) over the enumeration.
package frep

import (
	"fmt"
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
// (e.g. dictionary-decoded lexicographic order) makes EncIterator sort the
// key unions it seats.
type ValueLess func(a, b relation.Value) bool

// TupleIter is a resumable iterator over result tuples. EncIterator, the
// sort-fallback replay and Clip all implement it; the tuple returned by Next
// may be reused between calls — clone to retain.
type TupleIter interface {
	Next() (relation.Tuple, bool)
	Schema() relation.Schema
	Reset()
}

// EncOrder is a resolved order plan for one Enc: the ORDER BY keys were
// matched against the pre-order node sequence, so the first Prefix nodes
// stream in key order (per-node direction, under less) and every deeper node
// streams natively. It holds no data-sized state: the iterator puts each
// covered union in key order as it seats it.
type EncOrder struct {
	Prefix int
	desc   []bool    // per covered node
	less   ValueLess // nil: stored order is key order
}

// allConst reports whether every attribute of node ni is bound to a constant:
// such a node holds at most one entry per union, so it cannot perturb the
// order of the surrounding digits.
func (e *Enc) allConst(ni int) bool {
	for _, a := range e.ti.nodes[ni].Attrs {
		if !e.Tree.Consts.Has(a) {
			return false
		}
	}
	return true
}

// ResolveOrder matches the ORDER BY keys against e's pre-order node sequence
// and returns the order plan, or ok == false when the requested order is not
// a structural property of this encoding (the caller may retry after sibling
// reordering, or fall back to SortedRows). Keys on constant nodes impose
// nothing and are skipped, as are keys whose node an earlier key already
// pinned (their digits are tie-free).
func ResolveOrder(e *Enc, keys []OrderKey, less ValueLess) (*EncOrder, bool) {
	ord := &EncOrder{less: less}
	cover := func(desc bool) {
		ord.desc = append(ord.desc, desc)
		ord.Prefix++
	}
	for _, k := range keys {
		n := e.Tree.NodeOf(k.Attr)
		if n == nil || e.Tree.Hidden.Has(k.Attr) {
			return nil, false
		}
		ni := e.NodeIndex(n)
		if e.allConst(ni) || ni < ord.Prefix {
			continue
		}
		for ord.Prefix < ni && e.allConst(ord.Prefix) {
			cover(false)
		}
		if ord.Prefix != ni {
			return nil, false
		}
		cover(k.Desc)
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
// keys in order (honouring direction and the comparator), then every schema
// column ascending in native (stored value) order — a deterministic total
// order on distinct tuples, identical to the structural streaming order
// whenever that order exists (non-key digits stream in stored order, which
// for dictionary codes is insertion order, not decoded order).
func TupleCompare(schema relation.Schema, keys []OrderKey, less ValueLess) func(a, b relation.Tuple) int {
	cols := make([]int, len(keys))
	for i, k := range keys {
		cols[i] = schema.Index(k.Attr)
	}
	cmpVal := func(x, y relation.Value) int {
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
			d := cmpVal(a[c], b[c])
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

// SortedRows is the fallback for orders incompatible with the f-tree: it
// enumerates e once and returns the first k tuples under TupleCompare (k < 0:
// all of them), sorted. With a bound it keeps a max-heap of the best k
// tuples (O(N log k) time, O(k) memory — the top-k never materialises the
// flat result); without one it sorts everything. Callers clip an OFFSET off
// the front (Clip over ReplayIter) and so ask for offset+limit rows.
func SortedRows(e *Enc, keys []OrderKey, less ValueLess, k int) []relation.Tuple {
	cmp := TupleCompare(e.Schema(), keys, less)
	var rows []relation.Tuple
	switch {
	case k == 0:
		return nil
	case k > 0:
		heap := make([]relation.Tuple, 0, k)
		// Max-heap under cmp: the root is the worst of the best k so far.
		siftUp := func(i int) {
			for i > 0 {
				p := (i - 1) / 2
				if cmp(heap[i], heap[p]) <= 0 {
					return
				}
				heap[i], heap[p] = heap[p], heap[i]
				i = p
			}
		}
		siftDown := func(i int) {
			for {
				c := 2*i + 1
				if c >= len(heap) {
					return
				}
				if c+1 < len(heap) && cmp(heap[c+1], heap[c]) > 0 {
					c++
				}
				if cmp(heap[c], heap[i]) <= 0 {
					return
				}
				heap[i], heap[c] = heap[c], heap[i]
				i = c
			}
		}
		e.Enumerate(func(t relation.Tuple) bool {
			if len(heap) < k {
				heap = append(heap, t.Clone())
				siftUp(len(heap) - 1)
			} else if cmp(t, heap[0]) < 0 {
				heap[0] = t.Clone()
				siftDown(0)
			}
			return true
		})
		rows = heap
	default:
		e.Enumerate(func(t relation.Tuple) bool {
			rows = append(rows, t.Clone())
			return true
		})
	}
	sort.SliceStable(rows, func(i, j int) bool { return cmp(rows[i], rows[j]) < 0 })
	return rows
}

// ------------------------------------------------------------------ dedup

// HasDupEntries reports whether any union holds two entries with the same
// value — the one way an encoding can represent duplicate tuples. A cheap
// O(size) scan: engine-built representations satisfy the strict order
// invariant, so DISTINCT verifies the set property at memory speed and only
// pays for a rebuild when a duplicate actually exists.
func (e *Enc) HasDupEntries() bool {
	if e.IsEmpty() {
		return false
	}
	for ni := range e.cols {
		vals, offs := e.Vals(ni), e.Offs(ni)
		for u := 0; u+1 < len(offs); u++ {
			for j := offs[u] + 1; j < offs[u+1]; j++ {
				if vals[j] == vals[j-1] {
					return true
				}
			}
		}
	}
	return false
}

// DedupEnc returns the set-semantics normalisation of e: within every union,
// entries sharing a value are merged (their child unions union recursively)
// so the result satisfies the strict order invariant and represents the same
// relation without duplicates. Engine-produced representations already are
// sets (HasDupEntries is false), and come back unchanged without a rebuild;
// DISTINCT exists to make that guarantee explicit and to normalise
// externally-built encodings.
//
// Union does not distribute over the child product: entries v×(A1×B1) and
// v×(A2×B2) merge child by child only when they agree on all but at most
// one child (the rule setMerger.collide applies to ∪). A duplicate group
// that differs in two or more children is rebuilt flat over the path tree,
// like a non-decomposable set operation.
func DedupEnc(e *Enc) *Enc {
	if !e.HasDupEntries() {
		return e
	}
	nt := e.Tree.Clone()
	if e.IsEmpty() {
		return NewEmptyEnc(nt)
	}
	// The clone shares e's pre-order shape, so source and destination node
	// indexes coincide.
	b := NewEncBuilder(nt)
	var emit func(ni int, unions []int32) bool
	emit = func(ni int, unions []int32) bool {
		offs := e.Offs(ni)
		vals := e.Vals(ni)
		kids := e.Kids(ni)
		var idxs []int32
		for _, u := range unions {
			for j := offs[u]; j < offs[u+1]; j++ {
				idxs = append(idxs, j)
			}
		}
		sort.SliceStable(idxs, func(a, b int) bool { return vals[idxs[a]] < vals[idxs[b]] })
		for g := 0; g < len(idxs); {
			h := g
			for h < len(idxs) && vals[idxs[h]] == vals[idxs[g]] {
				h++
			}
			if !mergeable(e, kids, idxs[g:h]) {
				return false
			}
			b.Append(ni, vals[idxs[g]])
			for _, ci := range kids {
				if !emit(ci, idxs[g:h]) {
					return false
				}
				b.CloseUnion(ci)
			}
			g = h
		}
		return true
	}
	for _, ri := range e.Roots() {
		if !emit(ri, []int32{0}) {
			schema := e.Schema()
			return encodeRows(chainTree(schema), dedupRows(rowsOf(e, schema)), false)
		}
		b.CloseUnion(ri)
	}
	return b.Finish()
}

// mergeable reports whether the same-valued entries group (entry indexes of
// one node, whose children are kids) differ from one another in at most one
// child fragment — the condition under which their union is the product of
// the per-child unions.
func mergeable(e *Enc, kids []int, group []int32) bool {
	if len(group) < 2 || len(kids) < 2 {
		return true
	}
	diff := -1
	for _, other := range group[1:] {
		for _, ci := range kids {
			if ci != diff && !fragEqual(e, e, ci, int(group[0]), int(other)) {
				if diff >= 0 {
					return false
				}
				diff = ci
			}
		}
	}
	return true
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
