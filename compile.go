package fdb

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"weak"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/fbuild"
	"repro/internal/fplan"
	"repro/internal/frep"
	"repro/internal/opt"
	"repro/internal/probe"
	"repro/internal/relation"
	"repro/internal/store"
)

// A statement has one lifecycle, bind → plan → load, and this file is its
// first two stages. Neither reads a tuple: the paper derives a query's
// f-tree and its cost s(T) from the query and the schemas alone (Section 2),
// so a plan exists without its data. The third stage is Stmt.refresh, the
// only place data arrives (stmt.go).

// boundSpec is stage one's output: a spec resolved against the catalogue
// and fully validated.
type boundSpec struct {
	*spec
	stores []*delta.Store
	// query is the spec over data-free shells (name and schema) of the From
	// relations, Selections holding the constants classifySel baked.
	query *core.Query
	sels  []boundSel
}

// boundSel is one selection as classifySel saw it, located in the inputs:
// column col of input relation rel compared against a baked code
// (selConst), or — a late selection — against a value only an execution
// knows: its binding of a parameter (selParam), or a string that must be
// re-resolved against the dictionary every time (selDynamic: a range
// comparison, whose decoded order can gain strings between Execs, or an
// equality whose constant has no code yet and may gain one).
type boundSel struct {
	selSpec
	class    selClass
	code     relation.Value // class == selConst: the value code to bake
	rel, col int            // the input relation and column attr names
}

// bind resolves the spec's relations to their stores and schemas under one
// read lock, classifies every selection once, and runs all of the query's
// validation, so that nothing downstream of it (the plan cache, plan) can
// meet an invalid query.
func (db *DB) bind(s *spec) (*boundSpec, error) {
	if len(s.from) == 0 {
		return nil, fmt.Errorf("fdb: query needs From(...)")
	}
	q := &core.Query{Equalities: s.eqs, Projection: s.project}
	b := &boundSpec{spec: s, stores: make([]*delta.Store, len(s.from)), query: q}
	db.mu.RLock()
	for i, name := range s.from {
		st, ok := db.stores[name]
		if !ok {
			db.mu.RUnlock()
			return nil, fmt.Errorf("fdb: unknown relation %q", name)
		}
		b.stores[i] = st
		q.Relations = append(q.Relations, relation.New(st.Name, st.Schema))
	}
	db.mu.RUnlock()
	for _, sel := range s.sels {
		class, code, err := db.classifySel(sel.op, sel.val)
		if err != nil {
			return nil, err
		}
		bs := boundSel{selSpec: sel, class: class, code: code, rel: -1}
		for i, r := range q.Relations {
			if j := r.Schema.Index(sel.attr); j >= 0 {
				bs.rel, bs.col = i, j
				break
			}
		}
		if bs.rel < 0 {
			return nil, fmt.Errorf("fdb: selection on unknown attribute %q", sel.attr)
		}
		if class == selConst {
			q.Selections = append(q.Selections, core.ConstSel{A: sel.attr, Op: sel.op, C: code})
		}
		b.sels = append(b.sels, bs)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(s.groupBy) > 0 && len(s.aggs) == 0 {
		return nil, fmt.Errorf("fdb: GroupBy needs at least one Agg clause")
	}
	if len(s.aggs) > 0 {
		if len(s.order) > 0 || s.limit >= 0 || s.offset > 0 || s.distinct {
			return nil, fmt.Errorf("fdb: OrderBy/Limit/Offset/Distinct apply to tuple results; aggregate rows are already sorted by group key")
		}
		if s.project != nil {
			return nil, fmt.Errorf("fdb: Project cannot be combined with aggregates (GroupBy defines the output columns)")
		}
		all := relation.NewAttrSet(q.Attributes()...)
		seen := relation.AttrSet{}
		for _, a := range s.groupBy {
			if seen.Has(a) {
				return nil, fmt.Errorf("fdb: duplicate group-by attribute %q", a)
			}
			seen.Add(a)
			if !all.Has(a) {
				return nil, fmt.Errorf("fdb: group-by attribute %q not in any input relation", a)
			}
		}
		for _, sp := range s.aggs {
			if sp.Fn != frep.AggCount && !all.Has(sp.Attr) {
				return nil, fmt.Errorf("fdb: aggregate attribute %q not in any input relation", sp.Attr)
			}
		}
	}
	if len(s.order) > 0 {
		out := s.project
		if out == nil {
			out = q.Attributes()
		}
		if err := checkOrderKeys(s.order, out); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// checkOrderKeys rejects an ORDER BY key outside the result's attributes.
func checkOrderKeys(keys []frep.OrderKey, result []relation.Attribute) error {
	out := relation.NewAttrSet(result...)
	for _, k := range keys {
		if !out.Has(k.Attr) {
			return fmt.Errorf("fdb: order-by attribute %q not in the result", k.Attr)
		}
	}
	return nil
}

// fingerprint is the plan-cache key of the bound spec: canonical over the
// relations' names and schemas and the query's clauses, and stored in
// FDBSNAP1 files (adoptSaved matches on it), so its bytes are a format.
// Data versions are not part of the key: cached statements self-refresh from
// the delta chains. Parameterised selections fingerprint by attribute,
// operator and placeholder name — the bound values are per-Exec and never
// part of the plan identity.
func (b *boundSpec) fingerprint() string {
	q := *b.query
	q.Selections = nil
	var psels, ssels []string
	for _, sel := range b.sels {
		// String constants fingerprint by spelling whether or not they have
		// a code: the key must not depend on insertion history.
		switch v := sel.val.(type) {
		case string:
			ssels = append(ssels, fmt.Sprintf("%s %d %q", sel.attr, sel.op, v))
		case ParamValue:
			psels = append(psels, fmt.Sprintf("%s %d $%s", sel.attr, sel.op, v.name))
		default:
			q.Selections = append(q.Selections, core.ConstSel{A: sel.attr, Op: sel.op, C: sel.code})
		}
	}
	var key strings.Builder
	key.WriteString(q.Fingerprint())
	if len(psels) > 0 {
		key.WriteString("|psels " + strings.Join(psels, ","))
	}
	if len(ssels) > 0 {
		sort.Strings(ssels)
		key.WriteString("|ssels " + strings.Join(ssels, ","))
	}
	// Ordering participates in planning (the tree is reordered/restructured
	// so the keys stream) and limit/offset/distinct ride on the compiled
	// statement, so all four are part of the plan identity.
	if len(b.order) > 0 {
		key.WriteString("|order")
		for _, k := range b.order {
			key.WriteString(" " + k.String())
		}
	}
	if b.offset > 0 {
		fmt.Fprintf(&key, "|off %d", b.offset)
	}
	if b.limit >= 0 {
		fmt.Fprintf(&key, "|lim %d", b.limit)
	}
	if b.distinct {
		key.WriteString("|distinct")
	}
	// Aggregation restructures the compiled tree (group attributes lifted),
	// so grouping and aggregate list are part of the plan identity.
	if len(b.aggs) > 0 {
		key.WriteString("|groupby")
		for _, a := range b.groupBy {
			key.WriteString(" " + string(a))
		}
		key.WriteString("|aggs")
		for _, sp := range b.aggs {
			key.WriteString(" " + sp.Label())
		}
	}
	return key.String()
}

// plan is stage two: it decides everything about the statement that its
// data cannot change — the f-tree (planTree, Lift for grouped aggregates,
// the order-aware choice), each input's baked constant filter and its
// f-tree path-sort permutation — and returns the statement around that
// immutable plan. The statement holds no data yet; its first execution
// loads it (Stmt.refresh) into the holder plan takes from the database's
// registry, shared with every live statement of the same srcKey.
func (db *DB) plan(b *boundSpec) (*Stmt, error) {
	q := b.query
	p := stmtPlan{
		db:         db,
		params:     b.params(),
		project:    b.project,
		groupBy:    b.groupBy,
		aggs:       b.aggs,
		outClauses: b.outClauses,
		inputs:     make([]stmtInput, len(b.stores)),
	}
	// Constant selections are cheapest first (Section 4): each input's are
	// compiled into one filter, applied when the input is loaded and to every
	// delta folded into it afterwards. Parameters and dynamic string
	// selections resolve per Exec.
	consts := make([][]boundSel, len(b.stores))
	for _, sel := range b.sels {
		if sel.class == selConst {
			consts[sel.rel] = append(consts[sel.rel], sel)
		} else {
			p.lsels = append(p.lsels, sel)
		}
	}
	for i, mine := range consts {
		if len(mine) > 0 {
			p.inputs[i].filter = func(t relation.Tuple) bool {
				for _, c := range mine {
					if !(core.ConstSel{Op: c.op, C: c.code}).Match(t[c.col]) {
						return false
					}
				}
				return true
			}
		}
	}
	classes, schemas := q.Classes(), q.Schemas()
	var err error
	if p.tree, p.cost, err = db.planTree(classes, schemas, nil); err != nil {
		return nil, err
	}
	// Grouped aggregation: restructure the optimal tree once, at compile
	// time, so the group-by attributes label nodes above every aggregated
	// one. Exec-time builds then produce the lifted layout directly and the
	// aggregation pass is linear in the representation size — no data
	// movement per Exec.
	if len(b.groupBy) > 0 {
		if err := (fplan.Lift{Attrs: b.groupBy}).ApplyTree(p.tree); err != nil {
			return nil, err
		}
	}
	// Order-aware planning: sibling and root order are semantically free, so
	// first try to reorder the optimal tree until the ORDER BY keys label the
	// front of its pre-order walk (streaming order, no sort). If the shape
	// itself is in the way, search for the cheapest order-compatible tree and
	// take it when the cost model approves — equal cost always, half a cover
	// unit of slack when a Limit makes top-k short-circuiting worth it.
	// Otherwise the statement keeps the optimal tree and retrieval falls back
	// to a bounded heap at Exec time.
	if len(b.order) > 0 {
		// A successful reorder is verified against the order property it
		// claims to establish.
		p.streamable = fplan.ReorderForOrder(p.tree, b.order) && fplan.OrderCompatible(p.tree, b.order)
		if !p.streamable {
			ot, ocost, oerr := db.planTree(classes, schemas, orderChain(classes, b.order))
			switch {
			case oerr == nil:
				if opt.PreferOrdered(p.cost, ocost, b.limit >= 0) && fplan.ReorderForOrder(ot, b.order) {
					p.tree, p.cost = ot, ocost
					p.streamable = true
				}
			case errors.Is(oerr, opt.ErrOrderIncompatible):
				// No f-tree of this query streams the requested order;
				// retrieval falls back to the bounded heap at Exec time.
			default:
				return nil, oerr
			}
		}
	}
	// Every input is loaded, and kept, sorted in its f-tree path order, so
	// Exec-time builds see pre-sorted inputs and never mutate them.
	for i, shell := range q.Relations {
		in := &p.inputs[i]
		in.store = b.stores[i]
		if in.sortIdx, err = fbuild.SortIndex(shell, p.tree); err != nil {
			return nil, err
		}
		in.sortAttrs = make([]relation.Attribute, len(in.sortIdx))
		for j, c := range in.sortIdx {
			in.sortAttrs[j] = shell.Schema[c]
		}
	}
	return &Stmt{stmtPlan: p, src: db.srcs.get(srcKey(&p, consts))}, nil
}

// srcKey identifies the data a live statement executes over: per input, the
// store and the constant selections baked into its filter, then the f-tree's
// store.TreeKey (shape, sibling order, Rels, Deps and markers). The path-sort
// permutations follow from the tree, so two statements with one key load
// the same sorted inputs and build the same encoding — whatever projection,
// ordering, limits or aggregates they apply on top of it. Late selections
// are per execution and never reach the shared data.
//
// A store enters the key by address. That names it exactly for as long as
// the key's holder lives, because the holder's statements keep their stores
// alive; once the holder is collected its entry reads nil and is replaced.
func srcKey(p *stmtPlan, consts [][]boundSel) string {
	var key strings.Builder
	for i, in := range p.inputs {
		cs := make([]string, len(consts[i]))
		for j, c := range consts[i] {
			cs[j] = fmt.Sprintf("%d %d %d", c.col, c.op, c.code)
		}
		sort.Strings(cs)
		fmt.Fprintf(&key, "%p[%s];", in.store, strings.Join(cs, ","))
	}
	key.WriteString(store.TreeKey(p.tree))
	return key.String()
}

// srcRegistry hands every statement planned with one srcKey the same data
// holder. It holds weak pointers only, so it keeps no holder alive, and a
// cleanup deletes a key once its holder is collected. It is a heap object of
// its own, reached from the DB but never reaching back: the cleanups close
// over the registry, and a cleanup that reached the DB would keep the
// database, and with it every statement, alive.
type srcRegistry struct {
	mu sync.Mutex
	m  map[string]weak.Pointer[stmtSrc]
}

// get returns the live holder registered under key, or registers a new one.
func (r *srcRegistry) get(key string) *stmtSrc {
	r.mu.Lock()
	defer r.mu.Unlock()
	if src := r.m[key].Value(); src != nil {
		return src
	}
	src := &stmtSrc{}
	r.m[key] = weak.Make(src)
	runtime.AddCleanup(src, r.drop, key)
	return src
}

// drop deletes key once its holder is collected, unless a live holder has
// replaced it since.
func (r *srcRegistry) drop(key string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m[key].Value() == nil {
		delete(r.m, key)
	}
}

// The fuzz harness checks that a statement and its same-tree twin share a
// holder.
func init() {
	probe.SharesData = func(a, b any) bool { return a.(*Stmt).src == b.(*Stmt).src }
}

// orderChain maps the ORDER BY keys to their attribute-class indices, in key
// order with repeats dropped — the chain the ordered search pins to the
// front of the pre-order walk.
func orderChain(classes []relation.AttrSet, keys []frep.OrderKey) []int {
	var chain []int
	seen := map[int]bool{}
	for _, k := range keys {
		for i, c := range classes {
			if c.Has(k.Attr) {
				if !seen[i] {
					seen[i] = true
					chain = append(chain, i)
				}
				break
			}
		}
	}
	return chain
}
