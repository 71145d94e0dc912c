// Set algebra over encoded f-representations. UNION, EXCEPT and INTERSECT
// walk the two operands' sorted unions simultaneously — the same two-cursor
// discipline as the leapfrog build — and emit a merged encoding through
// EncBuilder, never through the flat tuples.
//
// The structural walk rests on how each operation interacts with the
// product decomposition the f-tree imposes. INTERSECT distributes over
// Cartesian products, so a collided entry recurses into every child pair.
// UNION and EXCEPT do not: at a collision whose node has children C1..Ck,
// the operation decomposes only when the sides' fragments agree on all but
// at most one child — equal children are copied once and the operation
// lands in the one that differs. A collision with two or more differing
// children aborts the structural merge (errNonDecomposable) and the
// operands are rebuilt over a path tree, where every node has at most one
// child and the merge always decomposes. UNION ALL is the dedup-free leg:
// a collision keeps both entries as adjacent equal values (the bag reading
// of the encoding — DedupEnc normalises it back to a set).
package frep

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/ftree"
	"repro/internal/relation"
)

// setOp selects the merge semantics of one set-algebra walk.
type setOp int

const (
	opUnion setOp = iota
	opUnionAll
	opExcept
	opIntersect
)

func (o setOp) String() string {
	switch o {
	case opUnion:
		return "union"
	case opUnionAll:
		return "union all"
	case opExcept:
		return "except"
	case opIntersect:
		return "intersect"
	}
	return "?"
}

// errNonDecomposable aborts a structural merge when a union or except walk
// hits a collision whose sides differ in two or more child subtrees — the
// operation does not distribute over that product, so the operands fall
// back to the path-tree rebuild.
var errNonDecomposable = errors.New("frep: set operation does not decompose over this f-tree")

// SetUnionEnc returns a ∪ b under set semantics: the sorted unions of the two
// encodings are merged in one simultaneous walk when the f-trees align
// (directly, or after a Reindex when only sibling order differs), falling
// back to a path-tree rebuild otherwise. The operands must cover the same
// visible attribute set; their column orders may differ (the result follows
// a's tree on the structural path, a's schema order on the rebuild path).
func SetUnionEnc(a, b *Enc) (*Enc, error) { return setOpEnc(opUnion, a, b) }

// BagUnionEnc returns a ⊎ b under bag semantics: no deduplication — a value
// present in both sides keeps both entries, as adjacent equal values in one
// union. The result may therefore violate the strict-order invariant that
// Validate checks for set-semantics encodings; enumeration, Count and
// clipping all handle it, and DedupEnc restores the set form.
func BagUnionEnc(a, b *Enc) (*Enc, error) { return setOpEnc(opUnionAll, a, b) }

// ExceptEnc returns a − b under set semantics. Alignment and fallback as
// for SetUnionEnc.
func ExceptEnc(a, b *Enc) (*Enc, error) { return setOpEnc(opExcept, a, b) }

// IntersectEnc returns a ∩ b under set semantics. Intersection distributes
// over the f-tree's products, so the structural walk never needs the
// rebuild for aligned trees — misaligned trees still take it.
func IntersectEnc(a, b *Enc) (*Enc, error) { return setOpEnc(opIntersect, a, b) }

func setOpEnc(op setOp, a, b *Enc) (*Enc, error) {
	if err := checkSetSchemas(op, a, b); err != nil {
		return nil, err
	}
	// Empty operands short-circuit before any alignment work.
	switch {
	case a.IsEmpty() && b.IsEmpty():
		return NewEmptyEnc(a.Tree.Clone()), nil
	case a.IsEmpty():
		switch op {
		case opUnion:
			return DedupEnc(b), nil
		case opUnionAll:
			return b, nil
		default: // ∅ − B = ∅ ∩ B = ∅
			return NewEmptyEnc(a.Tree.Clone()), nil
		}
	case b.IsEmpty():
		switch op {
		case opIntersect:
			return NewEmptyEnc(a.Tree.Clone()), nil
		case opUnionAll:
			return a, nil
		default: // A ∪ ∅ = A − ∅ = A
			return DedupEnc(a), nil
		}
	}
	// Hidden attributes make structural values and visible tuples diverge
	// (two operands can be equal as relations yet differ entry-for-entry),
	// so only marker-free operands take the structural walk.
	if len(a.Tree.Hidden) == 0 && len(b.Tree.Hidden) == 0 {
		if rb, ok := alignSetOp(a, b); ok {
			la, lb := a, rb
			if op != opUnionAll {
				// Set semantics needs set-form inputs; engine-built operands
				// already are (DedupEnc is then free).
				la, lb = DedupEnc(la), DedupEnc(lb)
			}
			out, err := setOpStructural(op, la, lb)
			if err == nil {
				return out, nil
			}
			if !errors.Is(err, errNonDecomposable) {
				return nil, err
			}
		}
	}
	return setOpFlat(op, a, b)
}

// checkSetSchemas enforces the one hard contract: both operands cover the
// same visible attribute set (column order is free).
func checkSetSchemas(op setOp, a, b *Enc) error {
	av, bv := a.Tree.VisibleAttrs().Sorted(), b.Tree.VisibleAttrs().Sorted()
	if len(av) == 0 {
		return fmt.Errorf("frep: %s: operand has no visible attributes", op)
	}
	if len(av) != len(bv) {
		return fmt.Errorf("frep: %s: schemas differ: %v vs %v", op, av, bv)
	}
	for i := range av {
		if av[i] != bv[i] {
			return fmt.Errorf("frep: %s: schemas differ: %v vs %v", op, av, bv)
		}
	}
	return nil
}

// alignSetOp returns a view of b whose pre-order layout matches a's
// node-for-node, or ok=false when the trees genuinely disagree. Canonical
// equality admits sibling permutations, which Reindex resolves without
// touching the arena; anything else (different classes, different nesting,
// different markers) is not structurally mergeable.
func alignSetOp(a, b *Enc) (rb *Enc, ok bool) {
	if a.Tree.Canonical() != b.Tree.Canonical() || a.NodeCount() != b.NodeCount() {
		return nil, false
	}
	direct := true
	for ni := 0; ni < a.NodeCount(); ni++ {
		if a.Parent(ni) != b.Parent(ni) || !attrsEqual(a.Node(ni).Attrs, b.Node(ni).Attrs) {
			direct = false
			break
		}
	}
	if direct {
		return b, true
	}
	rb, err := b.Reindex(a.Tree.Clone())
	if err != nil {
		return nil, false
	}
	return rb, true
}

func attrsEqual(a, b []relation.Attribute) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// setMerger carries one structural merge: both operands share the builder's
// pre-order node indexing, so source and destination indexes coincide and
// off-walk fragments move by bulk copy.
type setMerger struct {
	op    setOp
	a, b  *Enc
	bld   *EncBuilder
	marks [][]int32 // per-depth Mark scratch
}

func (m *setMerger) markAt(d int) []int32 {
	for len(m.marks) <= d {
		m.marks = append(m.marks, nil)
	}
	return m.marks[d][:0]
}

// setOpStructural runs the simultaneous walk over aligned operands. A
// forest is the product of its roots, so it follows the same decomposition
// rules as a collided entry's child product: intersect recurses into every
// root, the others require all but at most one root to agree.
func setOpStructural(op setOp, a, b *Enc) (*Enc, error) {
	nt := a.Tree.Clone()
	m := &setMerger{op: op, a: a, b: b, bld: NewEncBuilder(nt)}
	roots := a.Roots()
	if len(roots) == 1 {
		n, err := m.mergeUnion(roots[0], 0, 0, 0)
		if err != nil {
			return nil, err
		}
		m.bld.CloseUnion(roots[0])
		if n == 0 {
			return NewEmptyEnc(nt), nil
		}
		return m.bld.Finish(), nil
	}
	if op == opIntersect {
		for _, ri := range roots {
			n, err := m.mergeUnion(ri, 0, 0, 0)
			if err != nil {
				return nil, err
			}
			if n == 0 {
				return NewEmptyEnc(nt), nil
			}
			m.bld.CloseUnion(ri)
		}
		return m.bld.Finish(), nil
	}
	diff := -1
	for _, ri := range roots {
		if !fragEqual(a, b, ri, 0, 0) {
			if diff >= 0 {
				return nil, errNonDecomposable
			}
			diff = ri
		}
	}
	if diff < 0 { // the operands are equal
		switch op {
		case opUnion:
			return a, nil
		case opExcept:
			return NewEmptyEnc(nt), nil
		default: // opUnionAll: A ⊎ A doubles any one root's component
			diff = roots[0]
		}
	}
	for _, ri := range roots {
		if ri != diff {
			m.bld.CopyUnions(a, ri, ri, 0, 1)
			continue
		}
		n, err := m.mergeUnion(ri, 0, 0, 0)
		if err != nil {
			return nil, err
		}
		if n == 0 { // except emptied the one differing root
			return NewEmptyEnc(nt), nil
		}
		m.bld.CloseUnion(ri)
	}
	return m.bld.Finish(), nil
}

// mergeUnion emits the operation of union ua of a and union ub of b at node
// ni into the builder's open union there, returning the entries emitted.
func (m *setMerger) mergeUnion(ni, ua, ub, depth int) (int, error) {
	alo, ahi := m.a.UnionSpan(ni, ua)
	blo, bhi := m.b.UnionSpan(ni, ub)
	va, vb := m.a.Vals(ni), m.b.Vals(ni)
	i, k := alo, blo
	count := 0
	for i < ahi || k < bhi {
		switch {
		case k >= bhi || (i < ahi && va[i] < vb[k]):
			if m.op != opIntersect { // union, union all, except keep a-only entries
				m.bld.CopyEntries(m.a, ni, ni, int(i), int(i)+1)
				count++
			}
			i++
		case i >= ahi || vb[k] < va[i]:
			if m.op == opUnion || m.op == opUnionAll { // b-only entries
				m.bld.CopyEntries(m.b, ni, ni, int(k), int(k)+1)
				count++
			}
			k++
		default:
			n, err := m.collide(ni, int(i), int(k), depth)
			if err != nil {
				return 0, err
			}
			count += n
			i++
			k++
		}
	}
	return count, nil
}

// collide handles one value present in both operands: entry ia of a and
// entry ib of b at node ni. Returns the entries emitted at ni (0, 1 or —
// for union all — 2).
func (m *setMerger) collide(ni, ia, ib, depth int) (int, error) {
	kids := m.a.Kids(ni)
	v := m.a.Vals(ni)[ia]
	if len(kids) == 0 {
		switch m.op {
		case opUnion, opIntersect:
			m.bld.Append(ni, v)
			return 1, nil
		case opUnionAll:
			m.bld.Append(ni, v)
			m.bld.Append(ni, v)
			return 2, nil
		default: // opExcept: the leaf entry annihilates
			return 0, nil
		}
	}
	switch m.op {
	case opUnionAll:
		// Bag semantics: both entries survive verbatim as adjacent equal
		// values; no recursion, so union all never aborts below the roots.
		m.bld.CopyEntries(m.a, ni, ni, ia, ia+1)
		m.bld.CopyEntries(m.b, ni, ni, ib, ib+1)
		return 2, nil
	case opIntersect:
		// ∩ distributes over the child product: recurse into every pair,
		// rolling the entry back if any child intersection empties.
		mark := m.bld.Mark(ni, m.markAt(depth))
		m.marks[depth] = mark
		m.bld.Append(ni, v)
		for _, ci := range kids {
			n, err := m.mergeUnion(ci, ia, ib, depth+1)
			if err != nil {
				return 0, err
			}
			if n == 0 {
				m.bld.Rollback(ni, m.marks[depth])
				return 0, nil
			}
			m.bld.CloseUnion(ci)
		}
		return 1, nil
	}
	// ∪ and − do not distribute: decomposable only when the sides agree on
	// all but at most one child, where the operation then lands.
	diff := -1
	for _, ci := range kids {
		if !fragEqual(m.a, m.b, ci, ia, ib) {
			if diff >= 0 {
				return 0, errNonDecomposable
			}
			diff = ci
		}
	}
	if diff < 0 { // fragments identical below the value
		if m.op == opUnion {
			m.bld.CopyEntries(m.a, ni, ni, ia, ia+1)
			return 1, nil
		}
		return 0, nil // except: the entry annihilates
	}
	mark := m.bld.Mark(ni, m.markAt(depth))
	m.marks[depth] = mark
	m.bld.Append(ni, v)
	for _, ci := range kids {
		if ci != diff {
			m.bld.CopyUnions(m.a, ci, ci, ia, ia+1)
			continue
		}
		n, err := m.mergeUnion(ci, ia, ib, depth+1)
		if err != nil {
			return 0, err
		}
		if n == 0 { // except emptied the one differing child
			m.bld.Rollback(ni, m.marks[depth])
			return 0, nil
		}
		m.bld.CloseUnion(ci)
	}
	return 1, nil
}

// fragEqual reports whether union ua of a and union ub of b at (shared
// pre-order) node ni represent the same fragment — UnionEqual across two
// encodings with aligned layouts.
func fragEqual(a, b *Enc, ni, ua, ub int) bool {
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
			if !fragEqual(a, b, ci, int(alo+t), int(blo+t)) {
				return false
			}
		}
	}
	return true
}

// ------------------------------------------------------- path-tree rebuild

// chainTree builds the chain f-tree over schema order: one single-attribute
// node per column, each with exactly one child. On a path every collision
// has at most one differing child by construction, so rebuilt operands
// always merge.
func chainTree(schema relation.Schema) *ftree.T {
	var root, cur *ftree.Node
	for _, a := range schema {
		n := ftree.NewNode(a)
		if cur == nil {
			root = n
		} else {
			cur.Add(n)
		}
		cur = n
	}
	return ftree.New([]*ftree.Node{root}, []relation.AttrSet{relation.NewAttrSet(schema...)})
}

// setOpFlat is the rebuild fallback: both operands are enumerated, b's
// columns permuted into a's schema order, both sorted, combined flat, and
// the result re-encoded over the path tree. Correctness over structure —
// taken when the trees disagree or a structural merge aborts.
func setOpFlat(op setOp, a, b *Enc) (*Enc, error) {
	schema := a.Schema()
	ra, rb := rowsOf(a, schema), rowsOf(b, schema)
	if op != opUnionAll {
		ra, rb = dedupRows(ra), dedupRows(rb)
	}
	return encodeRows(chainTree(schema), mergeRows(op, ra, rb), op == opUnionAll), nil
}

// rowsOf enumerates e's visible tuples permuted into schema order and
// sorted lexicographically.
func rowsOf(e *Enc, schema relation.Schema) []relation.Tuple {
	es := e.Schema()
	perm := make([]int, len(schema))
	for i, a := range schema {
		perm[i] = es.Index(a)
	}
	var rows []relation.Tuple
	e.Enumerate(func(t relation.Tuple) bool {
		row := make(relation.Tuple, len(perm))
		for i, j := range perm {
			row[i] = t[j]
		}
		rows = append(rows, row)
		return true
	})
	cmp := TupleCompare(schema, nil, nil)
	sort.SliceStable(rows, func(i, j int) bool { return cmp(rows[i], rows[j]) < 0 })
	return rows
}

// dedupRows removes adjacent duplicates from a sorted row slice, in place.
func dedupRows(rows []relation.Tuple) []relation.Tuple {
	out := rows[:0]
	for _, r := range rows {
		if len(out) > 0 && r.Compare(out[len(out)-1]) == 0 {
			continue
		}
		out = append(out, r)
	}
	return out
}

// mergeRows combines two sorted row slices under op. For the set-semantics
// operations the inputs must be deduplicated; union all keeps every copy.
func mergeRows(op setOp, a, b []relation.Tuple) []relation.Tuple {
	var out []relation.Tuple
	i, k := 0, 0
	for i < len(a) || k < len(b) {
		var c int
		switch {
		case k >= len(b):
			c = -1
		case i >= len(a):
			c = 1
		default:
			c = a[i].Compare(b[k])
		}
		switch {
		case c < 0:
			if op != opIntersect {
				out = append(out, a[i])
			}
			i++
		case c > 0:
			if op == opUnion || op == opUnionAll {
				out = append(out, b[k])
			}
			k++
		default:
			switch op {
			case opUnionAll: // keep both copies
				out = append(out, a[i], b[k])
			case opUnion, opIntersect:
				out = append(out, a[i])
			}
			i++
			k++
		}
	}
	return out
}

// encodeRows builds a chain-tree encoding from rows sorted in t's (schema)
// order by streaming inserts along the common prefix with the previous row.
// With keepDup, duplicate rows become duplicate leaf entries (the bag form
// union all produces); otherwise the rows must already be deduplicated.
func encodeRows(t *ftree.T, rows []relation.Tuple, keepDup bool) *Enc {
	if len(rows) == 0 {
		return NewEmptyEnc(t)
	}
	// Chain trees index node depth = pre-order position.
	b := NewEncBuilder(t)
	n := len(rows[0])
	var prev relation.Tuple
	for _, row := range rows {
		cp := 0
		if prev != nil {
			for cp < n && row[cp] == prev[cp] {
				cp++
			}
			if cp == n { // duplicate row
				if !keepDup {
					continue
				}
				cp = n - 1
			}
			for l := n - 1; l > cp; l-- {
				b.CloseUnion(l)
			}
		}
		for l := cp; l < n; l++ {
			b.Append(l, row[l])
		}
		prev = row
	}
	for l := n - 1; l >= 0; l-- {
		b.CloseUnion(l)
	}
	return b.Finish()
}
