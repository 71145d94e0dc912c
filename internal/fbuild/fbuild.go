// Package fbuild evaluates an equi-join query directly into a factorised
// representation over a chosen f-tree, without materialising any flat
// intermediate result — the core evaluation primitive of FDB on relational
// input (Sections 2 and 5; the O(|Q|·|D|^{s(T̂)}) construction of [19]).
//
// The f-tree's nodes are the attribute equivalence classes of the query; by
// the path constraint every relation's classes lie on one root-to-leaf
// path. Each relation is sorted once by its classes in path order; the
// builder then descends the f-tree, unifying the candidate values of each
// class across the participating relations with a leapfrog-style
// merge-intersection over sorted index ranges, and emits union entries
// whose subtrees are all non-empty (semijoin reduction comes for free).
package fbuild

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/frep"
	"repro/internal/ftree"
	"repro/internal/relation"
)

// relState carries one input relation through the recursive build.
type relState struct {
	rel *relation.Relation
	// nodes on the relation's root-to-leaf path, shallowest first; the
	// relation has at least one attribute in each of these classes.
	nodes []*ftree.Node
	// cols[i] are the column indexes of the relation's attributes labelled
	// by nodes[i] (usually one; several if a within-relation equality
	// merged two of its attributes into one class).
	cols [][]int
	// next is the index into nodes of the first class not yet bound.
	next int
	// lo, hi delimit the tuples consistent with all bound ancestors.
	lo, hi int
}

// builder holds the shared build context.
type builder struct {
	tree *ftree.T
	// pre-order intervals for subtree tests.
	in, out map[*ftree.Node]int
	// cancellation: ctx is polled every checkTick leapfrog rounds; a
	// non-nil err aborts the recursion.
	ctx  context.Context
	tick uint
	err  error
	// encoded-build state: the column builder and one reusable mark buffer
	// per recursion depth (entry rollback on empty subtrees).
	eb    *frep.EncBuilder
	marks [][]int32
}

// checkTick is how many leapfrog rounds pass between context polls.
const checkTick = 1024

// checkpoint polls the build's context once every checkTick calls and
// reports whether the build has been cancelled.
func (b *builder) checkpoint() bool {
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

// newBuilder numbers the tree in pre-order for subtree tests.
func newBuilder(ctx context.Context, t *ftree.T) *builder {
	b := &builder{tree: t, in: map[*ftree.Node]int{}, out: map[*ftree.Node]int{}, ctx: ctx}
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
	return b
}

// SortFor sorts each relation by its root-to-leaf path order in t — exactly
// the order BuildEnc imposes — and verifies the path constraint. Callers
// that reuse relations across many builds (prepared statements) pay the
// sort once here; the build's own SortBy then detects the sorted input and
// becomes a read-only no-op, so the relations can be shared by concurrent
// builds.
func SortFor(rels []*relation.Relation, t *ftree.T) error {
	b := newBuilder(context.Background(), t)
	for _, r := range rels {
		if _, err := b.newState(r); err != nil {
			return err
		}
	}
	return nil
}

// SortIndex returns the column permutation the path sort imposes on r over
// t: the relation's class columns in root-to-leaf path order, followed by
// the remaining columns in schema order — exactly the comparator
// Relation.SortBy uses after SortFor. Callers maintaining sorted snapshots
// incrementally (merging net deltas into a statement's inputs) sort and
// merge by this index so the shared slices never need re-sorting.
func SortIndex(r *relation.Relation, t *ftree.T) ([]int, error) {
	b := newBuilder(context.Background(), t)
	st, err := b.newState(r)
	if err != nil {
		return nil, err
	}
	idx := make([]int, 0, len(r.Schema))
	seen := make([]bool, len(r.Schema))
	for _, cols := range st.cols {
		for _, c := range cols {
			idx = append(idx, c)
			seen[c] = true
		}
	}
	for c := range r.Schema {
		if !seen[c] {
			idx = append(idx, c)
		}
	}
	return idx, nil
}

// BuildEnc evaluates the natural join encoded by t over the given relations
// and returns its factorised representation over t, emitted straight into
// the arena-backed columns. Every attribute of every relation must label a
// node of t, and each relation's nodes must lie on one root-to-leaf path
// (the path constraint). Relations are sorted in place by their path order
// (a no-op if already sorted, e.g. via SortFor).
func BuildEnc(rels []*relation.Relation, t *ftree.T) (*frep.Enc, error) {
	return BuildEncContext(context.Background(), rels, t)
}

// BuildEncContext is BuildEnc with cancellation: the construction polls ctx
// at regular checkpoints and aborts with ctx's error, so long factorisation
// builds can be abandoned by impatient callers.
func BuildEncContext(ctx context.Context, rels []*relation.Relation, t *ftree.T) (*frep.Enc, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b := newBuilder(ctx, t)
	states, err := b.newStates(rels)
	if err != nil {
		return nil, err
	}
	return b.buildAll(t, states)
}

// newStates prepares one build state per input relation.
func (b *builder) newStates(rels []*relation.Relation) ([]*relState, error) {
	states := make([]*relState, 0, len(rels))
	for _, r := range rels {
		st, err := b.newState(r)
		if err != nil {
			return nil, err
		}
		states = append(states, st)
	}
	return states, nil
}

// markAt returns the reusable mark buffer for recursion depth d.
func (b *builder) markAt(d int) []int32 {
	for len(b.marks) <= d {
		b.marks = append(b.marks, nil)
	}
	return b.marks[d][:0]
}

// buildUnionEnc constructs the union for node from the relations routed
// here, emitting entries straight into the column builder; it returns the
// number of entries emitted into the (still open) union of node. Relations
// in states either have node as their next class (active) or start deeper
// (dormant). Entries whose subtree empties are rolled back.
func (b *builder) buildUnionEnc(node *ftree.Node, ni int, states []*relState, depth int) int {
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
			cur[i] = st.seek(col, v, cur[i], st.hi)
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
			hi := st.seek(cols[0], v+1, lo, st.hi)
			// Extra columns of the same class must also equal v; the range
			// [lo,hi) is sorted by them in order.
			for _, c := range cols[1:] {
				lo = st.seek(c, v, lo, hi)
				hi = st.seek(c, v+1, lo, hi)
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
			cur[i] = st.seek(st.cols[st.next][0], v+1, cur[i], st.hi)
		}
	}
}

// newState sorts the relation by its classes in path order and prepares its
// traversal state.
func (b *builder) newState(r *relation.Relation) (*relState, error) {
	byNode := map[*ftree.Node][]int{}
	var nodes []*ftree.Node
	for i, a := range r.Schema {
		n := b.tree.NodeOf(a)
		if n == nil {
			return nil, fmt.Errorf("fbuild: attribute %q of %s not in f-tree", a, r.Name)
		}
		if byNode[n] == nil {
			nodes = append(nodes, n)
		}
		byNode[n] = append(byNode[n], i)
	}
	// Path order = ascending pre-order number; verify the chain property.
	sort.Slice(nodes, func(i, j int) bool { return b.in[nodes[i]] < b.in[nodes[j]] })
	for i := 0; i+1 < len(nodes); i++ {
		if !b.inSubtree(nodes[i+1], nodes[i]) {
			return nil, fmt.Errorf("fbuild: relation %s violates the path constraint (classes %v and %v on different branches)",
				r.Name, nodes[i].Attrs, nodes[i+1].Attrs)
		}
	}
	st := &relState{rel: r, nodes: nodes, lo: 0, hi: r.Cardinality()}
	var order []relation.Attribute
	for _, n := range nodes {
		st.cols = append(st.cols, byNode[n])
		for _, c := range byNode[n] {
			order = append(order, r.Schema[c])
		}
	}
	r.SortBy(order)
	return st, nil
}

// inSubtree reports whether x lies in the subtree rooted at root.
func (b *builder) inSubtree(x, root *ftree.Node) bool {
	return b.in[root] <= b.in[x] && b.in[x] < b.out[root]
}

// seek returns the first index in [lo, hi) whose value in column col is at
// least v (tuples are sorted by col within the range).
func (st *relState) seek(col int, v relation.Value, lo, hi int) int {
	return lo + sort.Search(hi-lo, func(i int) bool {
		return st.rel.Tuples[lo+i][col] >= v
	})
}
