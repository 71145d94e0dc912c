package frep

import (
	"slices"

	"repro/internal/relation"
)

// fillTable precomputes, per pre-order node, the output-buffer positions of
// the node's visible attributes.
func encFillTable(e *Enc, schema relation.Schema) [][]int {
	pos := map[relation.Attribute]int{}
	for i, a := range schema {
		pos[a] = i
	}
	fills := make([][]int, len(e.ti.nodes))
	for ni, n := range e.ti.nodes {
		for _, a := range n.Attrs {
			if p, ok := pos[a]; ok {
				fills[ni] = append(fills[ni], p)
			}
		}
	}
	return fills
}

// Enumerate calls yield for each tuple of the represented relation, in
// lexicographic order of Schema(). Enumeration stops early if yield returns
// false. The buffer passed to yield is reused; clone it to retain.
// Enumeration is pure index arithmetic over the arena: no per-entry
// allocation.
func (e *Enc) Enumerate(yield func(relation.Tuple) bool) {
	if e.IsEmpty() {
		return
	}
	it := NewEncIterator(e, nil)
	for {
		t, ok := it.Next()
		if !ok {
			return
		}
		if !yield(t) {
			return
		}
	}
}

// EncIterator enumerates the tuples of an encoded representation with
// constant delay, as a resumable cursor: per node one absolute entry index
// plus the bounds of its current union — an odometer over flat arrays. It is
// the only odometer: without an order plan every union is walked in stored
// order (lexicographic over Schema()); with one (see ResolveOrder) the
// plan's covered prefix nodes walk their unions by direction and key-order
// permutation, which is ORDER BY retrieval with no sort of the output. The
// iterator is only valid while e is alive (Encs are immutable, so there is no
// invalidation-by-mutation hazard).
type EncIterator struct {
	e      *Enc
	ord    *EncOrder // nil: stored order
	prefix int       // ord.Prefix; 0 without an order plan
	schema relation.Schema
	fills  [][]int
	cur    []int32 // per node: current entry (absolute index into Vals)
	hi     []int32 // per node: end of its current union
	// per covered prefix node: start of its current union and the walk
	// position within it (stored-order nodes need neither: cur is both).
	lo, pos []int32
	// per covered prefix node: the current union's entries in key order,
	// by walk position; empty while stored order already is key order.
	perm    [][]int32
	offs    [][]int32 // per node: its union-offset column
	buf     relation.Tuple
	done    bool
	fresh   bool
	visited int64
}

// NewEncIterator prepares an iterator over all of e, in stored order when
// ord is nil and in the order ord was resolved for (against this same Enc)
// otherwise. Preparation is linear in the number of f-tree nodes; each Next
// is amortised constant delay.
func NewEncIterator(e *Enc, ord *EncOrder) *EncIterator {
	it := &EncIterator{e: e, ord: ord, schema: e.Schema()}
	nodes := len(e.ti.nodes)
	it.cur = make([]int32, nodes)
	it.hi = make([]int32, nodes)
	if ord != nil {
		it.prefix = ord.Prefix
		it.lo = make([]int32, ord.Prefix)
		it.pos = make([]int32, ord.Prefix)
		it.perm = make([][]int32, ord.Prefix)
	}
	it.fills = encFillTable(e, it.schema)
	it.buf = make(relation.Tuple, len(it.schema))
	it.offs = make([][]int32, nodes)
	for ni := range it.offs {
		it.offs[ni] = e.Offs(ni)
	}
	it.Reset()
	return it
}

// Reset rewinds the iterator to the first tuple.
func (it *EncIterator) Reset() {
	it.visited = 0
	it.done = it.e.IsEmpty()
	it.fresh = !it.done
	if it.done {
		return
	}
	it.reseat(0)
}

// span returns the union node ni currently walks: union 0 for roots, else
// the one under its parent's current entry (pre-order guarantees the parent
// is already seated).
func (it *EncIterator) span(ni int) (lo, hi int32) {
	u := 0
	if p := it.e.ti.par[ni]; p >= 0 {
		u = int(it.cur[p])
	}
	o := it.offs[ni]
	return o[u], o[u+1]
}

// entryAt maps a walk position of covered prefix node ni to its absolute
// entry index: backwards for a descending key, through the union's
// key-order permutation when it has one.
func (it *EncIterator) entryAt(ni int, pos int32) int32 {
	if it.ord.desc[ni] {
		pos = it.hi[ni] - it.lo[ni] - 1 - pos
	}
	if p := it.perm[ni]; len(p) > 0 {
		return p[pos]
	}
	return it.lo[ni] + pos
}

// keyOrder returns the entries of node ni's union [lo, hi) stably sorted by
// the comparator, in the node's reused buffer — empty when stored order
// already is key order (no comparator, or no inversion between neighbours).
func (it *EncIterator) keyOrder(ni int, lo, hi int32) []int32 {
	less, vals, p := it.ord.less[ni], it.e.Vals(ni), it.perm[ni][:0]
	j := lo + 1
	for less != nil && j < hi && !less(vals[j], vals[j-1]) {
		j++
	}
	if less == nil || j >= hi {
		return p
	}
	for k := lo; k < hi; k++ {
		p = append(p, k)
	}
	slices.SortStableFunc(p, func(a, b int32) int {
		switch {
		case less(vals[a], vals[b]):
			return -1
		case less(vals[b], vals[a]):
			return 1
		}
		return 0
	})
	return p
}

// reseat recomputes union spans and first-entry cursors for nodes [from, n)
// in pre-order. The covered prefix comes first in pre-order, so the
// order-plan test is one comparison per call, not one per node. A covered
// node re-sorts only when its union changed, not when a sibling moved.
func (it *EncIterator) reseat(from int) {
	n := len(it.cur)
	it.visited += int64(n - from)
	ni := from
	for ; ni < it.prefix; ni++ {
		if lo, hi := it.span(ni); lo != it.lo[ni] || hi != it.hi[ni] {
			it.lo[ni], it.hi[ni] = lo, hi
			it.perm[ni] = it.keyOrder(ni, lo, hi)
		}
		it.pos[ni] = 0
		it.cur[ni] = it.entryAt(ni, 0)
	}
	for ; ni < n; ni++ {
		it.cur[ni], it.hi[ni] = it.span(ni)
	}
}

// Next returns the next tuple, or ok = false when the enumeration is
// exhausted. The returned slice is reused across calls; clone it to retain.
func (it *EncIterator) Next() (t relation.Tuple, ok bool) {
	if it.done {
		return nil, false
	}
	from := 0
	if it.fresh {
		it.fresh = false
	} else {
		// Odometer: advance the deepest-rightmost node with entries left,
		// reseat everything after it. Nodes past the order prefix step
		// through stored entries; a prefix node steps its walk position.
		i := len(it.cur) - 1
		for ; i >= it.prefix; i-- {
			if it.cur[i]+1 < it.hi[i] {
				it.cur[i]++
				break
			}
		}
		if i < it.prefix {
			for ; i >= 0; i-- {
				if it.pos[i]+1 < it.hi[i]-it.lo[i] {
					it.pos[i]++
					it.cur[i] = it.entryAt(i, it.pos[i])
					break
				}
			}
			if i < 0 {
				it.done = true
				return nil, false
			}
		}
		it.visited++
		it.reseat(i + 1)
		from = i
	}
	for ni := from; ni < len(it.cur); ni++ {
		v := it.e.Vals(ni)[it.cur[ni]]
		for _, p := range it.fills[ni] {
			it.buf[p] = v
		}
	}
	return it.buf, true
}

// Schema returns the attribute order of the tuples produced by Next.
func (it *EncIterator) Schema() relation.Schema { return it.schema }

// Visited returns the number of entry seatings since the last Reset — the
// work measure behind the O(n) top-k guarantee: Limit(n) retrieval touches
// O(n) of the encoding.
func (it *EncIterator) Visited() int64 { return it.visited }
