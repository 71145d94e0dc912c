// Package fbuild evaluates an equi-join query directly into a factorised
// representation over a chosen f-tree, without materialising any flat
// intermediate result — the core evaluation primitive of FDB on relational
// input (Sections 2 and 5; the O(|Q|·|D|^{s(T̂)}) construction of [19]).
//
// The f-tree's nodes are the attribute equivalence classes of the query; by
// the path constraint every relation's classes lie on one root-to-leaf
// path. Each relation is sorted once by its classes in path order; the
// builder then descends the f-tree, unifying the candidate values of each
// class across the participating relations with a leapfrog merge over
// sorted index ranges (galloping seeks), and emits union entries whose
// subtrees are all non-empty (semijoin reduction comes for free). A leaf
// whose class is one column of the one relation routed to it needs no
// merge: every other class of that relation is bound, so its union is the
// relation's range of that column, already sorted, and it is gathered —
// copied less adjacent repeats. Scratch lives in one frame per tree node
// and states are routed by pre-order index, so the build allocates nothing
// per union or value. The column builders draw their columns from frep's
// pool, and packing puts them back, so a build that repeats a tree
// allocates its arena and little else.
//
// A node's subtree depends only on its key (Olteanu and Závodný): the
// ranges of the relations routed to it, less those whose columns below it
// are constant over their input, since any non-empty range of such a
// relation projects to one tuple. A node that is not a leaf, under an
// ancestor that binds no keyed relation, meets each key once per entry of
// that ancestor; it memoises key → the entry span its union produced and
// copies the span, subtree and all, on a repeat. Leaves are not memoised:
// their keys mostly miss, and a leaf union is cheap to rebuild — a gathered
// one costs one load per tuple.
//
// A build has one driver, BuildEncParallelContext (parallel.go): the other
// roots are built into one column builder, the pivot root's values split
// into morsels built into one builder each, and frep.EncBuilder.Finish
// packs them all into one arena. A serial build is one unbounded morsel.
package fbuild

import (
	"context"
	"fmt"
	"math"
	"slices"

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
	pres  []int // pres[i] is nodes[i]'s pre-order index: routing compares ints
	// cols[i] are the column indexes of the relation's attributes labelled
	// by nodes[i] (usually one; several if a within-relation equality
	// merged two of its attributes into one class).
	cols [][]int
	// next is the index into nodes of the first class not yet bound.
	next int
	// lo, hi delimit the tuples consistent with all bound ancestors.
	lo, hi int
	// constFrom is the first index into nodes from which every column is
	// constant over the input: below such a node the state's range, never
	// empty there, projects to one tuple, so it is left out of keys.
	constFrom int
}

// builder holds the shared build context.
type builder struct {
	tree *ftree.T
	// cancellation: ctx is polled every checkTick leapfrog rounds; a
	// non-nil err aborts the recursion.
	ctx  context.Context
	tick uint
	err  error
	// eb receives the entries and numbers the tree in pre-order, once per
	// build: the driver's builder takes the other roots, and each morsel's
	// is a Fresh one over the same numbering; all take their columns from
	// frep's pool, and the driver's Finish puts them back. frames[ni] is the
	// scratch of the union being built for node ni, reused by every union
	// of ni, so a build allocates no scratch per union or per value.
	eb     *frep.EncBuilder
	frames []frame
	// memo[i]: node i memoises its unions (see memoise), shared read-only
	// by morsel workers. hits, copied and dropped count memo hits, the
	// entries they copied over all nodes and the records rollbacks dropped.
	memo                  []bool
	hits, copied, dropped int
}

// memoStats, when set (by tests), receives each builder's memo counters as
// its build ends.
var memoStats func(hits, copied, dropped int)

func (b *builder) report() {
	if memoStats != nil {
		memoStats(b.hits, b.copied, b.dropped)
	}
}

// frame is one node's scratch in buildUnionEnc, and a memoised node's
// table, open addressing over flat slices: key is the current union's key
// (lo, hi of each keyed routed state), keys and spans record each key
// built and the entry span it produced (empty too) in build order, and
// slots holds record numbers + 1 (0 is empty), doubling when half full.
// Spans grow along the column, so a rollback drops records from the end,
// and dropping a linear-probing table's newest record restores the table.
type frame struct {
	active []*relState // states that bind this union's class
	cur    []int       // each active state's leapfrog position
	save   []span      // each active state's range on entry to the union
	routed []*relState // states passed down, grouped by child:
	cut    []int       // routed[cut[ci]:cut[ci+1]] go to child ci
	mark   []int32     // column lengths to roll an emptied entry back to

	key, keys []int
	spans     []span
	slots     []int32
}

type span struct{ lo, hi int }

// checkTick is how many leapfrog rounds, or gathered tuples, pass between
// context polls.
const checkTick = 1024

// checkpoint advances the build's tick by n, polls its context whenever
// the tick passes a multiple of checkTick, and reports whether the build
// has been cancelled.
func (b *builder) checkpoint(n uint) bool {
	if b.err != nil {
		return true
	}
	tick := b.tick + n
	if tick/checkTick != b.tick/checkTick {
		if err := b.ctx.Err(); err != nil {
			b.err = err
			return true
		}
	}
	b.tick = tick
	return false
}

// newBuilder numbers the tree in pre-order (its column builder) and gives
// each node a frame.
func newBuilder(ctx context.Context, t *ftree.T) *builder {
	eb := frep.NewEncBuilder(t)
	return &builder{tree: t, ctx: ctx, eb: eb, frames: make([]frame, eb.NodeCount())}
}

// under reports whether pre-order index p lies in the subtree of node i.
func (b *builder) under(p, i int) bool { return i <= p && p < b.eb.End(i) }

// SortFor sorts each relation by its root-to-leaf path order in t — exactly
// the order BuildEnc imposes — and verifies the path constraint. Callers
// that reuse relations across many builds (prepared statements) pay the
// sort once here; the build's own relation.SortPerm then finds the input
// sorted and writes nothing, so the relations can be shared by concurrent
// builds.
func SortFor(rels []*relation.Relation, t *ftree.T) error {
	for _, r := range rels {
		idx, err := SortIndex(r, t)
		if err != nil {
			return err
		}
		relation.SortPerm(r.Tuples, idx)
	}
	return nil
}

// SortIndex returns the column permutation the path sort imposes on r over
// t: the relation's class columns in root-to-leaf path order, which cover
// every column, since every attribute must label a node of t. Callers
// maintaining sorted snapshots incrementally (a statement's inputs, merged
// with net deltas) sort and merge by it with relation.SortPerm and
// relation.ComparePerm, so the shared slices never need re-sorting.
func SortIndex(r *relation.Relation, t *ftree.T) ([]int, error) {
	_, cols, err := pathOf(r, t)
	if err != nil {
		return nil, err
	}
	return slices.Concat(cols...), nil
}

// pathOf returns the nodes of t that label r's attributes, root first, with
// the columns of r each one labels, and checks the path constraint: the
// root path of the deepest of them holds them all.
func pathOf(r *relation.Relation, t *ftree.T) (nodes []*ftree.Node, cols [][]int, err error) {
	var path []*ftree.Node
	for _, a := range r.Schema {
		n := t.NodeOf(a)
		if n == nil {
			return nil, nil, fmt.Errorf("fbuild: attribute %q of %s not in f-tree", a, r.Name)
		}
		if p := t.PathTo(n); len(p) > len(path) {
			path = p
		}
	}
	covered := 0
	for _, n := range path {
		var c []int
		for i, a := range r.Schema {
			if n.HasAttr(a) {
				c = append(c, i)
			}
		}
		if c != nil {
			nodes, cols, covered = append(nodes, n), append(cols, c), covered+len(c)
		}
	}
	if covered < len(r.Schema) {
		return nil, nil, fmt.Errorf("fbuild: relation %s violates the path constraint (its classes lie on different branches)", r.Name)
	}
	return nodes, cols, nil
}

// BuildEnc evaluates the natural join encoded by t over the given relations
// and returns its factorised representation over t, emitted straight into
// the arena-backed columns. Every attribute of every relation must label a
// node of t, and each relation's nodes must lie on one root-to-leaf path
// (the path constraint). Relations are sorted in place by their path order
// (a no-op if already sorted, e.g. via SortFor). It is the build driver,
// BuildEncParallelContext, with one worker.
func BuildEnc(rels []*relation.Relation, t *ftree.T) (*frep.Enc, error) {
	return BuildEncParallelContext(context.Background(), rels, t, 1)
}

// newStates prepares one build state per input relation and decides which
// nodes memoise.
func (b *builder) newStates(rels []*relation.Relation) ([]*relState, error) {
	states := make([]*relState, 0, len(rels))
	for _, r := range rels {
		st, err := b.newState(r)
		if err != nil {
			return nil, err
		}
		states = append(states, st)
	}
	b.memoise(states)
	return states, nil
}

// memoise marks the nodes whose unions are memoised: those that are not
// leaves and have an ancestor that binds no state keyed at the node. Such
// an ancestor's entries leave every keyed range alone, so the node meets
// each key once per entry; where every ancestor binds a keyed state, each
// key is new and a table would only cost.
func (b *builder) memoise(states []*relState) {
	b.memo = make([]bool, len(b.frames))
	for ni := range b.memo {
		if b.eb.End(ni) == ni+1 {
			continue // a leaf
		}
		for a := 0; a < ni && !b.memo[ni]; a++ {
			b.memo[ni] = b.under(ni, a) && !slices.ContainsFunc(states, func(st *relState) bool {
				// st.next at ni is st's first node under ni
				first := slices.IndexFunc(st.pres, func(p int) bool { return b.under(p, ni) })
				return keyed(st, first) && slices.Contains(st.pres, a)
			})
		}
	}
}

// keyed reports whether st's range can change the subtree below its k-th
// node: it has nodes there, and not all their columns are constant.
func keyed(st *relState, k int) bool { return k >= 0 && k < st.constFrom }

// memoUnion is buildUnionEnc for a memoised node: a key built before is
// copied, a new one built and recorded.
func (b *builder) memoUnion(ni int, states []*relState) int {
	f := &b.frames[ni]
	f.key = f.key[:0]
	for _, st := range states {
		if keyed(st, st.next) {
			f.key = append(f.key, st.lo, st.hi)
		}
	}
	if 2*len(f.spans) >= len(f.slots) { // grow, adding records in build order
		f.slots = make([]int32, max(16, 2*len(f.slots)))
		for r := range f.spans {
			s, _ := f.find(f.keys[r*len(f.key) : (r+1)*len(f.key)])
			f.slots[s] = int32(r + 1)
		}
	}
	s, r := f.find(f.key)
	if r >= 0 {
		sp := f.spans[r]
		b.hits++
		b.copied += b.eb.CopyEntries(b.eb, ni, ni, sp.lo, sp.hi)
		return sp.hi - sp.lo
	}
	lo := b.eb.Entries(ni)
	n := b.buildUnionEnc(ni, states)
	if b.err == nil {
		f.keys = append(f.keys, f.key...)
		f.spans = append(f.spans, span{lo, lo + n})
		f.slots[s] = int32(len(f.spans))
	}
	return n
}

// find returns the slot holding key and its record number, or the empty
// slot where key goes and -1.
func (f *frame) find(key []int) (slot, rec int) {
	h := uint64(len(key))
	for _, x := range key {
		h = (h ^ uint64(x)) * 0x9e3779b97f4a7c15
	}
	mask := len(f.slots) - 1
	for s := int(h>>32) & mask; ; s = (s + 1) & mask {
		r := int(f.slots[s]) - 1
		if r < 0 || slices.Equal(f.keys[r*len(key):(r+1)*len(key)], key) {
			return s, r
		}
	}
}

// drop forgets the records whose spans end past entry n, newest first.
func (f *frame) drop(n int) (dropped int) {
	k := len(f.key)
	for r := len(f.spans) - 1; r >= 0 && f.spans[r].hi > n; r-- {
		s, _ := f.find(f.keys[r*k : (r+1)*k])
		f.slots[s] = 0
		f.keys, f.spans = f.keys[:r*k], f.spans[:r]
		dropped++
	}
	return dropped
}

// buildUnionEnc constructs the union for node ni from the relations routed
// here, emitting entries straight into the column builder; it returns the
// number of entries emitted into the (still open) union of ni. Relations
// in states either have ni as their next class (active) or start deeper
// (dormant). A leaf with one active relation, whose class there is one
// column, is gathered; every other union is a leapfrog merge, and its
// entries whose subtree empties are rolled back.
func (b *builder) buildUnionEnc(ni int, states []*relState) int {
	f := &b.frames[ni]
	f.active, f.cur, f.save = f.active[:0], f.cur[:0], f.save[:0]
	for _, st := range states {
		if st.pres[st.next] == ni {
			f.active = append(f.active, st)
			f.cur = append(f.cur, st.lo) // scan position within [lo,hi)
			f.save = append(f.save, span{st.lo, st.hi})
		}
	}
	active, cur, save := f.active, f.cur, f.save
	if len(active) == 0 {
		// No relation constrains this class: impossible for query-derived
		// trees (every class stems from some relation), so treat as empty.
		return 0
	}
	if st := active[0]; len(active) == 1 && b.eb.End(ni) == ni+1 && len(st.cols[st.next]) == 1 {
		return b.gather(ni, st)
	}
	// Route the states to the children once: which child a state goes to
	// depends only on the class it binds next, the same for every value.
	kids := b.eb.Kids(ni)
	f.routed, f.cut = f.routed[:0], append(f.cut[:0], 0)
	for _, c := range kids {
		for _, st := range states {
			n := st.next
			if st.pres[n] == ni {
				n++
			}
			if n < len(st.pres) && b.under(st.pres[n], c) {
				f.routed = append(f.routed, st)
			}
		}
		f.cut = append(f.cut, len(f.routed))
	}
	count := 0
	// Leapfrog over the active relations' first class column.
	for {
		if b.checkpoint(1) {
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
		// including equality across extra same-class columns, and move its
		// cursor past v.
		ok := true
		for i, st := range active {
			cols := st.cols[st.next]
			lo := cur[i]
			hi := st.seekPast(cols[0], v, lo, st.hi)
			cur[i] = hi
			// Extra columns of the same class must also equal v; the range
			// [lo,hi) is sorted by them in order.
			for _, c := range cols[1:] {
				lo = st.seek(c, v, lo, hi)
				hi = st.seekPast(c, v, lo, hi)
			}
			if lo >= hi {
				ok = false
			}
			st.lo, st.hi = lo, hi
			st.next++
		}
		if ok {
			if len(kids) > 0 { // a leaf entry is never rolled back
				f.mark = b.eb.Mark(ni, f.mark[:0])
			}
			b.eb.Append(ni, v)
			alive := true
			for ci, c := range kids {
				routed := f.routed[f.cut[ci]:f.cut[ci+1]]
				var n int
				if b.memo[c] {
					n = b.memoUnion(c, routed)
				} else {
					n = b.buildUnionEnc(c, routed)
				}
				if n == 0 {
					alive = false
					break
				}
				b.eb.CloseUnion(c)
			}
			if alive {
				count++
			} else {
				b.eb.Rollback(ni, f.mark)
				for j := ni; j < b.eb.End(ni); j++ {
					if b.memo[j] {
						b.dropped += b.frames[j].drop(b.eb.Entries(j))
					}
				}
			}
		}
		for i, st := range active {
			st.lo, st.hi = save[i].lo, save[i].hi
			st.next--
		}
	}
}

// gather is the union at a leaf bound by one state whose class there is one
// column: every other class of the state is bound, so the union is the
// state's range of that column, which is sorted, less adjacent repeats. It
// appends checkTick tuples at a time, polling the context between chunks.
func (b *builder) gather(ni int, st *relState) int {
	col, count := st.cols[st.next][0], 0
	for lo := st.lo; lo < st.hi; lo += checkTick {
		hi := min(lo+checkTick, st.hi)
		if b.checkpoint(uint(hi - lo)) {
			break
		}
		count += b.eb.AppendDistinct(ni, st.rel.Tuples[lo:hi], col)
	}
	return count
}

// newState sorts the relation by its classes in path order and prepares its
// traversal state.
func (b *builder) newState(r *relation.Relation) (*relState, error) {
	nodes, cols, err := pathOf(r, b.tree)
	if err != nil {
		return nil, err
	}
	st := &relState{rel: r, nodes: nodes, cols: cols, lo: 0, hi: r.Cardinality()}
	for _, n := range nodes {
		st.pres = append(st.pres, b.eb.Idx(n))
	}
	st.constFrom = len(nodes)
	for st.constFrom > 0 && constant(r.Tuples, st.cols[st.constFrom-1]) {
		st.constFrom--
	}
	relation.SortPerm(r.Tuples, slices.Concat(st.cols...))
	return st, nil
}

// constant reports whether each of the columns holds one value over ts.
func constant(ts []relation.Tuple, cols []int) bool {
	return !slices.ContainsFunc(ts, func(t relation.Tuple) bool {
		return slices.ContainsFunc(cols, func(c int) bool { return t[c] != ts[0][c] })
	})
}

// seek returns the first index in [lo, hi) whose value in column col is at
// least v (tuples are sorted by col within the range). It gallops from lo,
// where the answer usually is or is near, and then bisects the last step.
func (st *relState) seek(col int, v relation.Value, lo, hi int) int {
	ts := st.rel.Tuples
	if lo >= hi || ts[lo][col] >= v {
		return lo
	}
	// ts[lo] < v: double the step until it overshoots.
	step := 1
	for lo+step < hi && ts[lo+step][col] < v {
		lo += step
		step <<= 1
	}
	hi = min(hi, lo+step)
	lo++
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ts[m][col] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// seekPast returns the first index in [lo, hi) whose value in column col
// exceeds v: the end of v's run. At the largest value, v+1 would wrap.
func (st *relState) seekPast(col int, v relation.Value, lo, hi int) int {
	if v == math.MaxInt64 {
		return hi
	}
	return st.seek(col, v+1, lo, hi)
}
