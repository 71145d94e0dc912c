// Package frep implements factorised representations (f-representations,
// Definition 1 of the paper) stored structurally against their f-tree
// (Definition 2). Each f-tree node corresponds, at every position in the
// data, to a union: a value-sorted list of entries, each with one child
// union per f-tree child. The top level holds one union per f-tree root
// (their product).
//
// Every Enc maintains two invariants from Section 3 (Validate checks
// them), so every Enc represents a set — a bag union keeps its operands'
// encodings apart (fdb.Result.UnionAll):
//
//   - order: the values of every union are strictly increasing;
//   - reduction: every non-root union is non-empty (an empty union would
//     annihilate its enclosing product, so the enclosing entry is removed
//     instead; emptiness can therefore only surface at the roots).
//
// Enc stores the data flat: one value column and one union-offset column
// per f-tree node, all backed by a single arena. The layout exploits the
// structural regularity of f-representations: the entries of a node,
// concatenated across all its unions in build order, are globally numbered,
// and union k of a child node belongs to global entry k of its parent
// (every parent entry has exactly one child union per child node). One
// offset array per node therefore encodes the entire nesting:
//
//	node column:  Vals  = all entry values, unions back to back
//	              Offs  = union boundaries: union u spans Vals[Offs[u]:Offs[u+1]]
//	child c:      union k of c  ⇔  entry k of the parent (absolute index)
//
// A corollary worth the price of admission: the representation fragment
// below any contiguous run of entries is itself contiguous in every
// descendant column, so subtree copies are bulk copies and the whole
// representation is trivially snapshot-shareable (arenas are immutable once
// built; views over a new tree share them).
package frep

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/ftree"
	"repro/internal/relation"
)

// Arena is the single backing store of an encoded representation: every
// node's value column lives in Vals and every node's offset column in Offs,
// delimited by per-node spans.
type Arena struct {
	Vals []relation.Value
	Offs []int32
}

// nodeCol is one node's pair of column spans within the arena.
type nodeCol struct {
	valLo, valHi int32
	offLo, offHi int32
}

// treeIndex is the pre-order indexing of an f-tree shared by Enc and
// EncBuilder: node list, reverse map, child/parent/subtree tables.
type treeIndex struct {
	nodes []*ftree.Node
	idx   map[*ftree.Node]int
	kids  [][]int
	par   []int // parent pre-order index; -1 for roots
	sub   []int // subtree end (exclusive): subtree(i) = nodes[i:sub[i]]
	roots []int
}

func indexTree(t *ftree.T) *treeIndex {
	ti := &treeIndex{idx: map[*ftree.Node]int{}}
	var walk func(n *ftree.Node, parent int)
	walk = func(n *ftree.Node, parent int) {
		i := len(ti.nodes)
		ti.nodes = append(ti.nodes, n)
		ti.idx[n] = i
		ti.par = append(ti.par, parent)
		ti.kids = append(ti.kids, nil)
		ti.sub = append(ti.sub, 0)
		for _, c := range n.Children {
			ti.kids[i] = append(ti.kids[i], len(ti.nodes))
			walk(c, i)
		}
		ti.sub[i] = len(ti.nodes)
	}
	for _, r := range t.Roots {
		ti.roots = append(ti.roots, len(ti.nodes))
		walk(r, -1)
	}
	return ti
}

// Enc is an encoded (columnar) factorised representation over an f-tree.
// Encs are immutable: operators produce fresh Encs (often sharing arenas
// through views) instead of mutating in place.
type Enc struct {
	Tree  *ftree.T
	Empty bool
	A     Arena
	cols  []nodeCol
	ti    *treeIndex
}

// NodeCount returns the number of f-tree nodes (pre-order columns).
func (e *Enc) NodeCount() int { return len(e.ti.nodes) }

// Node returns the f-tree node at pre-order index ni.
func (e *Enc) Node(ni int) *ftree.Node { return e.ti.nodes[ni] }

// NodeIndex returns the pre-order index of n, or -1.
func (e *Enc) NodeIndex(n *ftree.Node) int {
	if i, ok := e.ti.idx[n]; ok {
		return i
	}
	return -1
}

// Kids returns the pre-order indexes of ni's children.
func (e *Enc) Kids(ni int) []int { return e.ti.kids[ni] }

// Parent returns the pre-order index of ni's parent, or -1 for roots.
func (e *Enc) Parent(ni int) int { return e.ti.par[ni] }

// Roots returns the pre-order indexes of the root nodes.
func (e *Enc) Roots() []int { return e.ti.roots }

// Vals returns node ni's value column: all entries across all unions.
func (e *Enc) Vals(ni int) []relation.Value {
	c := &e.cols[ni]
	return e.A.Vals[c.valLo:c.valHi]
}

// Offs returns node ni's union offsets, relative to its value column:
// union u spans Vals(ni)[Offs[u]:Offs[u+1]].
func (e *Enc) Offs(ni int) []int32 {
	c := &e.cols[ni]
	return e.A.Offs[c.offLo:c.offHi]
}

// NumUnions returns the number of unions at node ni.
func (e *Enc) NumUnions(ni int) int { return int(e.cols[ni].offHi-e.cols[ni].offLo) - 1 }

// NumEntries returns the number of entries at node ni across all unions.
func (e *Enc) NumEntries(ni int) int { return int(e.cols[ni].valHi - e.cols[ni].valLo) }

// UnionSpan returns the entry range of union u at node ni (indexes into
// Vals(ni); for child nodes they double as the child-union indexes of the
// next level down).
func (e *Enc) UnionSpan(ni, u int) (lo, hi int32) {
	o := e.Offs(ni)
	return o[u], o[u+1]
}

// IsEmpty reports whether the represented relation is empty.
func (e *Enc) IsEmpty() bool {
	if e.Empty {
		return true
	}
	for _, ri := range e.ti.roots {
		if e.NumEntries(ri) == 0 {
			return true
		}
	}
	return false
}

// NewEmptyEnc returns the canonical empty representation over t: one empty
// union per root and no other union. It is empty over a tree without roots
// too, which no root union could say.
func NewEmptyEnc(t *ftree.T) *Enc { return pack(t, indexTree(t), true, nil) }

// ReTree returns a view of e over tree t, which must have the same
// pre-order shape (node-for-node) as e.Tree — used by operators that only
// change tree markers (hidden/const) or ownership. The arena is shared.
func (e *Enc) ReTree(t *ftree.T) *Enc {
	return &Enc{Tree: t, Empty: e.Empty, A: e.A, cols: e.cols, ti: indexTree(t)}
}

// DropLeaf returns a view of e without the leaf node at pre-order index ni,
// over tree t (e's tree with that leaf already removed). Dropping a leaf
// never changes any other column — parent entries keep their values and the
// reduction invariant guarantees nothing empties — so this is O(#nodes).
func (e *Enc) DropLeaf(t *ftree.T, ni int) *Enc {
	cols := make([]nodeCol, 0, len(e.cols)-1)
	cols = append(cols, e.cols[:ni]...)
	cols = append(cols, e.cols[ni+1:]...)
	return &Enc{Tree: t, Empty: e.Empty, A: e.A, cols: cols, ti: indexTree(t)}
}

// ConcatEnc combines two encoded representations into one over tree t,
// whose roots must be a's roots followed by b's roots (same shapes). Used
// by the Cartesian product operator: a builder whose columns are a's
// nodes, then b's, aliased rather than copied, goes through the packer,
// which does not own them and so never puts them in the pool.
func ConcatEnc(t *ftree.T, a, b *Enc) *Enc {
	cols := &EncBuilder{tree: t, ti: indexTree(t)}
	for _, src := range []*Enc{a, b} {
		for ni := range src.cols {
			cols.vals = append(cols.vals, src.Vals(ni))
			cols.offs = append(cols.offs, src.Offs(ni))
		}
	}
	return pack(t, cols.ti, a.IsEmpty() || b.IsEmpty(), []*EncBuilder{cols})
}

// ---------------------------------------------------------------- builder

// EncBuilder accumulates an encoded representation column by column. The
// protocol mirrors the recursive build of a representation: Append adds an
// entry value at a node, CloseUnion seals the current union (unions of a
// child node must be closed in the order of its parent's entries, one per
// parent entry), and Mark/Rollback undo a partially-emitted entry whose
// subtree turned out empty; AppendDistinct appends a sorted run of values
// at once. Finish packs the per-node columns into a single arena and
// spends the builder: its columns go back to a pool that later builders
// draw theirs from, and any further Append, AppendDistinct, CloseUnion,
// CopyUnions, CopyEntries or Finish panics.
type EncBuilder struct {
	tree *ftree.T
	ti   *treeIndex
	vals [][]relation.Value // buf's columns, one per node
	offs [][]int32
	buf  *colBuf // nil once spent, and in ConcatEnc's builder, which owns no columns
}

// colBuf holds one builder's per-node column pairs. A builder takes one
// from colPool and pack puts it back, its columns emptied with their
// capacity kept, so a repeated build appends into columns that already
// fit and allocates little but its arena. The GC empties an idle pool.
type colBuf struct {
	vals [][]relation.Value
	offs [][]int32
}

var colPool = sync.Pool{New: func() any { return new(colBuf) }}

// NewEncBuilder prepares a builder for representations over t.
func NewEncBuilder(t *ftree.T) *EncBuilder { return newEncBuilder(t, indexTree(t)) }

// Fresh returns an empty builder over b's tree that shares b's pre-order
// numbering, so the builders one Finish packs number the tree once.
func (b *EncBuilder) Fresh() *EncBuilder { return newEncBuilder(b.tree, b.ti) }

func newEncBuilder(t *ftree.T, ti *treeIndex) *EncBuilder {
	c := colPool.Get().(*colBuf)
	for len(c.vals) < len(ti.nodes) {
		c.vals, c.offs = append(c.vals, nil), append(c.offs, nil)
	}
	b := &EncBuilder{tree: t, ti: ti, vals: c.vals[:len(ti.nodes)], offs: c.offs[:len(ti.nodes)], buf: c}
	for i := range b.offs {
		b.offs[i] = append(b.offs[i], 0)
	}
	return b
}

// live panics if Finish has spent b: its columns may be another build's now.
func (b *EncBuilder) live(op string) {
	if b.buf == nil {
		panic("frep: EncBuilder." + op + " after Finish: Finish spent the builder and put its columns back in the pool")
	}
}

// Idx returns the pre-order index of n (which must be a node of the
// builder's tree).
func (b *EncBuilder) Idx(n *ftree.Node) int { return b.ti.idx[n] }

// Kids returns the pre-order indexes of ni's children.
func (b *EncBuilder) Kids(ni int) []int { return b.ti.kids[ni] }

// End returns the end (exclusive) of ni's subtree in pre-order: node p lies
// in it iff ni <= p < End(ni).
func (b *EncBuilder) End(ni int) int { return b.ti.sub[ni] }

// NodeCount returns the number of f-tree nodes (pre-order columns).
func (b *EncBuilder) NodeCount() int { return len(b.ti.nodes) }

// Roots returns the pre-order indexes of the root nodes.
func (b *EncBuilder) Roots() []int { return b.ti.roots }

// i32 guards the offset casts: columns are indexed with int32, so a column
// past 2^31 entries must fail loudly instead of wrapping into corrupt
// spans.
func i32(n int) int32 {
	if n > math.MaxInt32 {
		panic("frep: enc: column exceeds 2^31 entries")
	}
	return int32(n)
}

// Entries returns the number of entry values appended so far at node ni.
func (b *EncBuilder) Entries(ni int) int { return len(b.vals[ni]) }

// Append adds one entry value at node ni (to the currently open union).
func (b *EncBuilder) Append(ni int, v relation.Value) {
	b.live("Append")
	b.vals[ni] = append(b.vals[ni], v)
}

// AppendDistinct appends column col of ts, which must be sorted by it, to
// the open union at node ni, skipping each value equal to the union's last
// entry, and returns the number of entries it appended. Chunks of one
// sorted range, appended in order, give the range's distinct values.
func (b *EncBuilder) AppendDistinct(ni int, ts []relation.Tuple, col int) int {
	b.live("AppendDistinct")
	if len(ts) == 0 {
		return 0
	}
	vals := b.vals[ni]
	n := len(vals)
	if n == int(b.offs[ni][len(b.offs[ni])-1]) {
		vals, ts = append(vals, ts[0][col]), ts[1:] // the union is empty
	}
	last := vals[len(vals)-1]
	for _, t := range ts {
		if v := t[col]; v != last {
			vals, last = append(vals, v), v
		}
	}
	b.vals[ni] = vals
	return len(vals) - n
}

// CloseUnion seals the currently open union at node ni.
func (b *EncBuilder) CloseUnion(ni int) {
	b.live("CloseUnion")
	b.offs[ni] = append(b.offs[ni], i32(len(b.vals[ni])))
}

// Mark captures the column lengths of ni's subtree into buf (reused across
// calls; pass buf[:0]). Rollback with the same ni restores them, undoing
// every Append/CloseUnion in the subtree since the mark.
func (b *EncBuilder) Mark(ni int, buf []int32) []int32 {
	for j := ni; j < b.ti.sub[ni]; j++ {
		buf = append(buf, int32(len(b.vals[j])), int32(len(b.offs[j])))
	}
	return buf
}

// Rollback truncates ni's subtree columns to a state captured by Mark.
func (b *EncBuilder) Rollback(ni int, marks []int32) {
	for j := ni; j < b.ti.sub[ni]; j++ {
		k := 2 * (j - ni)
		b.vals[j] = b.vals[j][:marks[k]]
		b.offs[j] = b.offs[j][:marks[k+1]]
	}
}

// Columns is what the copies read: an Enc, or a builder's own columns as
// built so far, so a builder can copy what it has already built.
type Columns interface {
	Vals(ni int) []relation.Value
	Offs(ni int) []int32
	Kids(ni int) []int
}

// Vals returns node ni's value column as built so far.
func (b *EncBuilder) Vals(ni int) []relation.Value { return b.vals[ni] }

// Offs returns node ni's union offsets as built so far.
func (b *EncBuilder) Offs(ni int) []int32 { return b.offs[ni] }

// CopyUnions bulk-copies unions [ulo,uhi) of src node sni — with their
// entire subtrees — into builder node dni, closing every copied union, and
// returns the number of entries copied over all nodes. The subtree shapes
// below sni and dni must match child-for-child.
func (b *EncBuilder) CopyUnions(src Columns, sni, dni, ulo, uhi int) int {
	b.live("CopyUnions")
	so := src.Offs(sni)
	base := i32(len(b.vals[dni])) - so[ulo]
	for u := ulo; u < uhi; u++ {
		b.offs[dni] = append(b.offs[dni], base+so[u+1])
	}
	return b.CopyEntries(src, sni, dni, int(so[ulo]), int(so[uhi]))
}

// CopyEntries is the one column-range copy: entries [elo,ehi) of src node
// sni go to the open union at builder node dni, which stays open, and
// below them each source child's unions [elo,ehi), since child union k
// belongs to parent entry k. Every descendant's fragment is one contiguous
// column range, so the copy is a handful of memmoves per node; the
// set-algebra merges interleave entries from either operand with it. src
// may be b itself: the copied range lies below each column's length.
func (b *EncBuilder) CopyEntries(src Columns, sni, dni, elo, ehi int) int {
	b.live("CopyEntries")
	b.vals[dni] = append(b.vals[dni], src.Vals(sni)[elo:ehi]...)
	n := ehi - elo
	for k, sc := range src.Kids(sni) {
		n += b.CopyUnions(src, sc, b.ti.kids[dni][k], elo, ehi)
	}
	return n
}

// Finish packs b's columns, followed node by node by those of each builder
// in more, into one arena and returns the encoded representation. A later
// builder's union offsets are rebased by the entries before it at the
// node, so builders over consecutive value ranges of a root concatenate
// into one build: each leaves that root's union open, and a root union
// none of them closed is closed once, over all of them. Emptiness is
// detected from the roots (any root union without entries represents ∅).
// Finish spends b and every builder in more (see EncBuilder).
func (b *EncBuilder) Finish(more ...*EncBuilder) *Enc {
	b.live("Finish")
	for _, p := range more {
		p.live("Finish")
	}
	return pack(b.tree, b.ti, false, append([]*EncBuilder{b}, more...))
}

// pack is the only code that writes an arena. Node ni's column is the
// parts' columns at ni back to back, each part's offsets past its leading
// 0 rebased by the entries before it; a root that no part closed a union
// at gets one union over all its entries. The result is empty if empty is
// set or any root union has no entries. Once the arena is written, pack
// spends every part and puts each part's columns that it owns back in the
// pool: no arena aliases them, and no other code reads a spent part.
func pack(t *ftree.T, ti *treeIndex, empty bool, parts []*EncBuilder) *Enc {
	nv, no := 0, 0
	for ni := range ti.nodes {
		closed := 0
		for _, p := range parts {
			nv += len(p.vals[ni])
			closed += len(p.offs[ni]) - 1
		}
		if closed == 0 && ti.par[ni] < 0 {
			closed = 1
		}
		no += 1 + closed
	}
	e := &Enc{Tree: t, Empty: empty, ti: ti,
		A:    Arena{Vals: make([]relation.Value, 0, nv), Offs: make([]int32, 0, no)},
		cols: make([]nodeCol, len(ti.nodes))}
	for ni := range ti.nodes {
		vlo, olo := i32(len(e.A.Vals)), i32(len(e.A.Offs))
		e.A.Offs = append(e.A.Offs, 0)
		for _, p := range parts {
			base := i32(len(e.A.Vals)) - vlo
			e.A.Vals = append(e.A.Vals, p.vals[ni]...)
			if offs := p.offs[ni][1:]; base == 0 {
				e.A.Offs = append(e.A.Offs, offs...)
			} else {
				for _, o := range offs {
					e.A.Offs = append(e.A.Offs, base+o)
				}
			}
		}
		if len(e.A.Offs) == int(olo)+1 && ti.par[ni] < 0 { // a root union none closed
			e.A.Offs = append(e.A.Offs, i32(len(e.A.Vals))-vlo)
		}
		e.cols[ni] = nodeCol{valLo: vlo, valHi: i32(len(e.A.Vals)), offLo: olo, offHi: i32(len(e.A.Offs))}
		if ti.par[ni] < 0 && e.NumEntries(ni) == 0 {
			e.Empty = true
		}
	}
	for _, p := range parts {
		if p.buf != nil {
			for ni := range p.vals {
				p.vals[ni], p.offs[ni] = p.vals[ni][:0], p.offs[ni][:0]
			}
			colPool.Put(p.buf)
		}
		p.vals, p.offs, p.buf = nil, nil, nil
	}
	return e
}

// ------------------------------------------------------------ measures

// Count returns the number of tuples in the represented relation,
// saturating at math.MaxInt64 on overflow.
func (e *Enc) Count() int64 {
	if e.IsEmpty() {
		return 0
	}
	total := int64(1)
	for _, ri := range e.ti.roots {
		total = satMul(total, e.countSpan(ri, 0, int32(e.NumEntries(ri))))
	}
	return total
}

// countSpan counts the tuples represented by entries [lo,hi) of node ni
// (also COUNT's closed form in the aggregation evaluator, and the weights of
// its sums: sumSpan).
func (e *Enc) countSpan(ni int, lo, hi int32) int64 {
	kid := e.ti.kids[ni]
	if len(kid) == 0 {
		return int64(hi - lo)
	}
	var total int64
	for j := lo; j < hi; j++ {
		prod := int64(1)
		for _, ci := range kid {
			clo, chi := e.UnionSpan(ci, int(j))
			prod = satMul(prod, e.countSpan(ci, clo, chi))
		}
		total = satAdd(total, prod)
	}
	return total
}

// Size returns the number of singletons, the size measure |E| of the paper
// — a closed form over the columns: every entry of every node contributes
// one singleton per visible attribute of its class. Hidden attributes
// contribute nothing (their singletons are the nullary ⟨⟩); constant
// attributes still count (they hold a value).
func (e *Enc) Size() int {
	if e.IsEmpty() {
		return 0
	}
	total := 0
	for ni, n := range e.ti.nodes {
		vis := 0
		for _, a := range n.Attrs {
			if !e.Tree.Hidden.Has(a) {
				vis++
			}
		}
		total += e.NumEntries(ni) * vis
	}
	return total
}

// FlatSize returns Count() times the number of visible attributes — the
// data-element count of the flat representation — saturating at
// math.MaxInt64 like Count itself.
func (e *Enc) FlatSize() int64 {
	return satMul(e.Count(), int64(len(e.Schema())))
}

// Schema returns the visible attributes of the representation in canonical
// enumeration order: depth-first over the f-tree, attributes within a node
// in sorted order, roots left to right.
func (e *Enc) Schema() relation.Schema {
	size := 0
	for _, n := range e.ti.nodes {
		size += len(n.Attrs)
	}
	out := make(relation.Schema, 0, size)
	for _, n := range e.ti.nodes {
		for _, a := range n.Attrs {
			if !e.Tree.Hidden.Has(a) {
				out = append(out, a)
			}
		}
	}
	return out
}

// Relation materialises the represented relation.
func (e *Enc) Relation(name string) *relation.Relation {
	out := relation.New(name, e.Schema())
	e.Enumerate(func(t relation.Tuple) bool {
		out.AppendTuple(t.Clone())
		return true
	})
	return out
}

// String renders the representation in the paper's notation, e.g.
// ⟨item:2⟩×(⟨oid:1⟩∪⟨oid:3⟩). Values print numerically; use StringDict for
// rendered output.
func (e *Enc) String() string { return e.StringDict(nil, nil) }

// StringDict renders every value as relation.Cell renders it under snap (a
// dictionary snapshot) and its attribute's kind in kinds; an attribute
// missing from kinds prints numerically.
func (e *Enc) StringDict(snap []string, kinds map[relation.Attribute]relation.Kind) string {
	if e.IsEmpty() {
		return "∅"
	}
	if len(e.ti.roots) == 0 {
		return "⟨⟩"
	}
	var b strings.Builder
	for i, ri := range e.ti.roots {
		if i > 0 {
			b.WriteString(" × ")
		}
		e.renderUnion(&b, ri, 0, snap, kinds)
	}
	return b.String()
}

// renderUnion writes union u of node ni: its entries joined by ∪ (in
// parentheses when there are several), each entry the product of the node's
// singletons and its child unions.
func (e *Enc) renderUnion(b *strings.Builder, ni, u int, snap []string, kinds map[relation.Attribute]relation.Kind) {
	lo, hi := e.UnionSpan(ni, u)
	if hi-lo > 1 {
		b.WriteString("(")
	}
	for j := lo; j < hi; j++ {
		if j > lo {
			b.WriteString(" ∪ ")
		}
		attrs := e.ti.nodes[ni].Attrs
		val := relation.Cell(snap, e.Vals(ni)[j], kinds[attrs[0]])
		for i, a := range attrs {
			if i > 0 {
				b.WriteString("×")
			}
			fmt.Fprintf(b, "⟨%s:%s⟩", a, val)
		}
		for _, ci := range e.ti.kids[ni] {
			b.WriteString("×")
			e.renderUnion(b, ci, int(j), snap, kinds)
		}
	}
	if hi-lo > 1 {
		b.WriteString(")")
	}
}

// Equal reports structural equality over trees with equal canonical forms
// and matching pre-order layouts. (For semantic equality of
// differently-factorised data compare Relation() outputs.)
func (e *Enc) Equal(o *Enc) bool {
	if e.Tree.Canonical() != o.Tree.Canonical() {
		return false
	}
	if e.IsEmpty() || o.IsEmpty() {
		return e.IsEmpty() == o.IsEmpty()
	}
	if len(e.cols) != len(o.cols) {
		return false
	}
	for ni := range e.cols {
		av, bv := e.Vals(ni), o.Vals(ni)
		if len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
		ao, bo := e.Offs(ni), o.Offs(ni)
		if len(ao) != len(bo) {
			return false
		}
		for i := range ao {
			if ao[i] != bo[i] {
				return false
			}
		}
	}
	return true
}

// FragEqual reports whether union ua of a and union ub of b at node ni
// represent the same fragment: a deep comparison over the subtree. The two
// encodings share ni's pre-order layout below it (a == b compares two
// unions of one encoding).
func FragEqual(a, b *Enc, ni, ua, ub int) bool {
	alo, ahi := a.UnionSpan(ni, ua)
	blo, bhi := b.UnionSpan(ni, ub)
	if ahi-alo != bhi-blo {
		return false
	}
	va, vb := a.Vals(ni), b.Vals(ni)
	for t := int32(0); t < ahi-alo; t++ {
		if va[alo+t] != vb[blo+t] {
			return false
		}
		for _, ci := range a.Kids(ni) {
			if !FragEqual(a, b, ci, int(alo+t), int(blo+t)) {
				return false
			}
		}
	}
	return true
}

// Validate checks the structural invariants of the encoding: per-node
// offset monotonicity and bounds, one union per root, the parent-entry ⇔
// child-union correspondence, strictly increasing values within every
// union, and (for non-empty representations) the reduction invariant.
func (e *Enc) Validate() error {
	if len(e.cols) != len(e.ti.nodes) {
		return fmt.Errorf("frep: enc: %d columns for %d nodes", len(e.cols), len(e.ti.nodes))
	}
	for ni := range e.cols {
		offs := e.Offs(ni)
		if len(offs) == 0 {
			return fmt.Errorf("frep: enc: node %v has no offset column", e.ti.nodes[ni].Attrs)
		}
		if offs[0] != 0 || offs[len(offs)-1] != int32(e.NumEntries(ni)) {
			return fmt.Errorf("frep: enc: node %v offsets do not cover the value column", e.ti.nodes[ni].Attrs)
		}
		for u := 0; u+1 < len(offs); u++ {
			if offs[u] > offs[u+1] {
				return fmt.Errorf("frep: enc: node %v offsets not monotone", e.ti.nodes[ni].Attrs)
			}
		}
		p := e.ti.par[ni]
		want := 1
		if p >= 0 {
			want = e.NumEntries(p)
		}
		if e.NumUnions(ni) != want {
			return fmt.Errorf("frep: enc: node %v has %d unions, expected %d",
				e.ti.nodes[ni].Attrs, e.NumUnions(ni), want)
		}
	}
	if e.IsEmpty() {
		return nil
	}
	for ni := range e.cols {
		vals, offs := e.Vals(ni), e.Offs(ni)
		root := e.ti.par[ni] < 0
		for u := 0; u+1 < len(offs); u++ {
			lo, hi := offs[u], offs[u+1]
			if !root && lo == hi {
				return fmt.Errorf("frep: enc: empty non-root union at node %v", e.ti.nodes[ni].Attrs)
			}
			for j := lo + 1; j < hi; j++ {
				if vals[j] <= vals[j-1] {
					return fmt.Errorf("frep: enc: order violation at node %v: %d after %d",
						e.ti.nodes[ni].Attrs, vals[j], vals[j-1])
				}
			}
		}
	}
	return nil
}
