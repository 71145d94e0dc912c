// Package frep implements factorised representations (f-representations,
// Definition 1 of the paper) stored structurally against their f-tree
// (Definition 2). Each f-tree node corresponds, at every position in the
// data, to a union: a value-sorted list of entries, each with one child
// union per f-tree child. The top level holds one union per f-tree root
// (their product).
//
// The representation maintains two invariants from Section 3:
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
	"strconv"
	"strings"

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

// NewEmptyEnc returns the canonical empty representation over t.
func NewEmptyEnc(t *ftree.T) *Enc {
	b := NewEncBuilder(t)
	for _, ri := range b.ti.roots {
		b.CloseUnion(ri)
	}
	e := b.Finish()
	e.Empty = true
	return e
}

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
// by the Cartesian product operator; columns are copied into a fresh single
// arena, spans rebased.
func ConcatEnc(t *ftree.T, a, b *Enc) *Enc {
	out := &Enc{Tree: t, Empty: a.IsEmpty() || b.IsEmpty(), ti: indexTree(t)}
	out.A.Vals = make([]relation.Value, 0, len(a.A.Vals)+len(b.A.Vals))
	out.A.Offs = make([]int32, 0, len(a.A.Offs)+len(b.A.Offs))
	for _, src := range []*Enc{a, b} {
		for ni := range src.cols {
			vlo := i32(len(out.A.Vals))
			out.A.Vals = append(out.A.Vals, src.Vals(ni)...)
			olo := i32(len(out.A.Offs))
			out.A.Offs = append(out.A.Offs, src.Offs(ni)...)
			out.cols = append(out.cols, nodeCol{
				valLo: vlo, valHi: i32(len(out.A.Vals)),
				offLo: olo, offHi: i32(len(out.A.Offs)),
			})
		}
	}
	return out
}

// ---------------------------------------------------------------- builder

// EncBuilder accumulates an encoded representation column by column. The
// protocol mirrors the recursive build of a representation: Append adds an
// entry value at a node, CloseUnion seals the current union (unions of a
// child node must be closed in the order of its parent's entries, one per
// parent entry), and Mark/Rollback undo a partially-emitted entry whose
// subtree turned out empty. Finish packs the per-node columns into a single
// arena.
type EncBuilder struct {
	tree *ftree.T
	ti   *treeIndex
	vals [][]relation.Value
	offs [][]int32
}

// NewEncBuilder prepares a builder for representations over t.
func NewEncBuilder(t *ftree.T) *EncBuilder {
	ti := indexTree(t)
	b := &EncBuilder{tree: t, ti: ti,
		vals: make([][]relation.Value, len(ti.nodes)),
		offs: make([][]int32, len(ti.nodes))}
	for i := range b.offs {
		b.offs[i] = append(b.offs[i], 0)
	}
	return b
}

// Idx returns the pre-order index of n (which must be a node of the
// builder's tree).
func (b *EncBuilder) Idx(n *ftree.Node) int { return b.ti.idx[n] }

// Kids returns the pre-order indexes of ni's children.
func (b *EncBuilder) Kids(ni int) []int { return b.ti.kids[ni] }

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

// Append adds one entry value at node ni (to the currently open union).
func (b *EncBuilder) Append(ni int, v relation.Value) {
	b.vals[ni] = append(b.vals[ni], v)
}

// CloseUnion seals the currently open union at node ni.
func (b *EncBuilder) CloseUnion(ni int) {
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

// CopyUnions bulk-copies unions [ulo,uhi) of src node sni — with their
// entire subtrees — into builder node dni, closing every copied union. The
// subtree shapes below sni and dni must match child-for-child. Because
// child unions follow parent entry order, every descendant's fragment is a
// contiguous column range: the copy is a handful of memmoves per node.
func (b *EncBuilder) CopyUnions(src *Enc, sni, dni, ulo, uhi int) {
	so := src.Offs(sni)
	elo, ehi := so[ulo], so[uhi]
	base := int32(len(b.vals[dni])) - elo
	b.vals[dni] = append(b.vals[dni], src.Vals(sni)[elo:ehi]...)
	for u := ulo; u < uhi; u++ {
		b.offs[dni] = append(b.offs[dni], base+so[u+1])
	}
	dkids := b.ti.kids[dni]
	for k, sc := range src.ti.kids[sni] {
		b.CopyUnions(src, sc, dkids[k], int(elo), int(ehi))
	}
}

// CopyEntries bulk-copies entries [elo,ehi) of src node sni — with their
// entire subtrees — into the currently open union at builder node dni,
// without closing it. The entry values land in dni's open union; each
// copied entry's child unions are copied (and closed) beneath, preserving
// the parent-entry ⇔ child-union correspondence. Like CopyUnions this is a
// handful of memmoves per descendant node; it is the primitive behind the
// set-algebra merges, which interleave entries copied from either operand
// inside a single union.
func (b *EncBuilder) CopyEntries(src *Enc, sni, dni, elo, ehi int) {
	b.vals[dni] = append(b.vals[dni], src.Vals(sni)[elo:ehi]...)
	dkids := b.ti.kids[dni]
	for k, sc := range src.ti.kids[sni] {
		b.CopyUnions(src, sc, dkids[k], elo, ehi)
	}
}

// Finish packs the per-node columns into one arena and returns the encoded
// representation. Emptiness is detected from the roots (any root union
// without entries represents ∅).
func (b *EncBuilder) Finish() *Enc {
	totalV, totalO := 0, 0
	for i := range b.vals {
		totalV += len(b.vals[i])
		totalO += len(b.offs[i])
	}
	e := &Enc{Tree: b.tree, ti: b.ti,
		A:    Arena{Vals: make([]relation.Value, 0, totalV), Offs: make([]int32, 0, totalO)},
		cols: make([]nodeCol, len(b.vals))}
	for i := range b.vals {
		vlo := i32(len(e.A.Vals))
		e.A.Vals = append(e.A.Vals, b.vals[i]...)
		olo := i32(len(e.A.Offs))
		e.A.Offs = append(e.A.Offs, b.offs[i]...)
		e.cols[i] = nodeCol{valLo: vlo, valHi: i32(len(e.A.Vals)), offLo: olo, offHi: i32(len(e.A.Offs))}
	}
	for _, ri := range b.ti.roots {
		if e.NumEntries(ri) == 0 {
			e.Empty = true
			break
		}
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
// (also the count-only fast path of the aggregation evaluator).
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
	var out relation.Schema
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
// dictionary-decoded output.
func (e *Enc) String() string { return e.StringDict(nil) }

// StringDict renders with values decoded through d (nil: numerically).
func (e *Enc) StringDict(d *relation.Dict) string {
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
		e.renderUnion(&b, ri, 0, d)
	}
	return b.String()
}

// renderUnion writes union u of node ni: its entries joined by ∪ (in
// parentheses when there are several), each entry the product of the node's
// singletons and its child unions.
func (e *Enc) renderUnion(b *strings.Builder, ni, u int, d *relation.Dict) {
	lo, hi := e.UnionSpan(ni, u)
	if hi-lo > 1 {
		b.WriteString("(")
	}
	for j := lo; j < hi; j++ {
		if j > lo {
			b.WriteString(" ∪ ")
		}
		v := e.Vals(ni)[j]
		val := strconv.FormatInt(int64(v), 10)
		if d != nil {
			val = d.Decode(v)
		}
		for i, a := range e.ti.nodes[ni].Attrs {
			if i > 0 {
				b.WriteString("×")
			}
			fmt.Fprintf(b, "⟨%s:%s⟩", a, val)
		}
		for _, ci := range e.ti.kids[ni] {
			b.WriteString("×")
			e.renderUnion(b, ci, int(j), d)
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

// UnionEqual reports whether unions u1 and u2 of node ni represent the same
// fragment (deep comparison over the subtree; used by Strict push-up
// checks).
func (e *Enc) UnionEqual(ni, u1, u2 int) bool {
	lo1, hi1 := e.UnionSpan(ni, u1)
	lo2, hi2 := e.UnionSpan(ni, u2)
	if hi1-lo1 != hi2-lo2 {
		return false
	}
	vals := e.Vals(ni)
	for k := int32(0); k < hi1-lo1; k++ {
		if vals[lo1+k] != vals[lo2+k] {
			return false
		}
		for _, ci := range e.ti.kids[ni] {
			if !e.UnionEqual(ci, int(lo1+k), int(lo2+k)) {
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
